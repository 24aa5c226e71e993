(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the library threads an explicit [Rng.t]
    so that runs are reproducible from a single integer seed. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy sharing the current position. *)

val state : t -> int64
(** The complete internal state (splitmix64 is a single 64-bit counter).
    Persist it with {!of_state} to continue the exact stream after a
    checkpoint/resume cycle. *)

val of_state : int64 -> t
(** Generator positioned exactly where {!state} was captured. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val stream : seed:int -> index:int -> t
(** [stream ~seed ~index] derives the [index]-th replica stream of
    [seed] by splitmix64 stream splitting: index 0 is exactly
    [create seed] (so a single-replica run is bit-identical to the
    plain serial path), and index [k > 0] is the [k]-th {!split} of a
    master generator created from [seed]. Because each split seeds the
    child with a mixed 64-bit draw, the streams for nearby seeds and
    indices are provably distinct — unlike the naive [seed + k]
    offset, where [stream (s, k)] would collide with
    [stream (s + 1, k - 1)]. Raises [Invalid_argument] on a negative
    index. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)
