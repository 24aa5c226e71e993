(** Closed integer intervals [\[lo, hi\]].

    The fabric model uses intervals for horizontal segment column spans and
    vertical segment channel spans. *)

type t = { lo : int; hi : int }

val make : int -> int -> t
(** [make lo hi]; requires [lo <= hi]. *)

val point : int -> t

val length : t -> int
(** Number of integer positions covered: [hi - lo + 1]. *)

val contains : t -> int -> bool

val covers : t -> t -> bool
(** [covers a b] is true when [b] lies entirely within [a]. *)

val overlaps : t -> t -> bool

val adjacent : t -> t -> bool
(** True when the intervals abut without overlapping ([a.hi + 1 = b.lo] or
    symmetric). *)

val hull : t -> t -> t
(** Smallest interval containing both. *)

val clamp : t -> lo:int -> hi:int -> t
(** Intersect with [\[lo, hi\]]; requires a non-empty intersection. *)

val to_string : t -> string
