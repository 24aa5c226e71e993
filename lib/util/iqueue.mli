(** Intrusive sorted retry queue over a fixed id range [0, capacity).

    Members carry an integer priority key and enumerate in an explicit,
    hash-independent total order: {e key descending, id descending on
    ties} — the longest-estimated-length-first retry order of paper
    §3.3/§3.4. The layout is canonical (uniquely determined by the
    member (key, id) pairs), and every journaled mutation records its
    exact inverse, so rolling back a rejected move restores not just the
    membership but the enumeration order bit-for-bit.

    Members sit in one sorted array that grows with the queue, not with
    the id range. Membership is a per-id key lookup; an id's rank is a
    binary search over the canonical order, so insert and remove each
    cost O(log n) comparisons plus one shift of the later members. *)

type t

val create : capacity:int -> t
(** Empty queue over ids [0, capacity). *)

val capacity : t -> int

val length : t -> int

val mem : t -> int -> bool

val key : t -> int -> int
(** Current key of a queued id; raises [Invalid_argument] when absent. *)

val add : ?j:Journal.t -> t -> int -> key:int -> unit
(** Enqueue, or re-key an already-queued id (repositioning it). A no-op
    when the id is queued with that exact key; journaled otherwise.
    Raises [Invalid_argument] when [key] is [min_int], which marks an
    absent id. *)

val remove : ?j:Journal.t -> t -> int -> bool
(** [true] iff the id was queued. *)

val nth : t -> int -> int
(** [nth t i] is the id at rank [i] of the queue order, for
    [0 <= i < length t]: a positional read, so a caller can walk the
    queue and stop early without a list. Raises [Invalid_argument]
    outside that range. *)

val iter : (int -> unit) -> t -> unit
(** In queue order: key descending, ties by descending id. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> int list
(** In queue order. *)

val check : t -> (unit, string) result
(** Verify that the order is strict and that the queued ids are exactly
    the ids listed at ranks [0, length). *)
