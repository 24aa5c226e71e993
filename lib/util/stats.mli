(** Online mean / variance accumulator (Welford) plus simple descriptive
    helpers.

    The adaptive annealing schedule derives its starting temperature and
    temperature decrements from cost statistics collected with this
    module. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Population variance; 0 when fewer than two samples. *)

val stddev : t -> float

val min_value : t -> float
(** [infinity] when empty. *)

val max_value : t -> float
(** [neg_infinity] when empty. *)

val reset : t -> unit

(** {1 Persistence}

    An accumulator's complete internal state as plain data, so resumable
    checkpoints can serialize it (all floats must round-trip bit-exactly
    — see {!Persist.float_to_hex}) and restore an accumulator that
    continues the stream as if never interrupted. *)

type dump = {
  d_n : int;
  d_mean : float;
  d_m2 : float;
  d_min : float;
  d_max : float;
}

val dump : t -> dump

val restore : dump -> t
(** Fresh accumulator in exactly the dumped state. *)

val mean_of : float list -> float
