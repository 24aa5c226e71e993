(** Metrics registry: named counters, gauges, and fixed-bucket
    histograms.

    Metrics are registered once (get-or-create by name) and then updated
    through direct cell mutation — a hot-path increment is one store, so
    instrumented code costs the same as a bare mutable record field.
    A registry snapshot lists every metric in registration order, which
    keeps exported metric dumps deterministic for a deterministic
    program.

    Registries are single-domain; in a parallel portfolio each replica
    owns its own registry and the coordinator merges them afterwards
    with {!absorb} — recording never takes a lock. *)

type t
(** A registry. *)

type counter
(** Monotonic integer tally. *)

type gauge
(** Float cell; the move pipeline uses gauges for accumulated seconds. *)

type histogram
(** Fixed-bucket histogram: bucket [i] counts observations [<=
    bounds.(i)] (first matching bound), the final implicit bucket counts
    the overflow. *)

val create : unit -> t

val counter : t -> string -> counter
(** Get-or-create. Raises [Invalid_argument] if the name is registered
    as a different metric kind. *)

val gauge : t -> string -> gauge

val histogram : t -> bounds:float array -> string -> histogram
(** [bounds] must be non-empty and strictly increasing; a get of an
    existing histogram checks that the bounds match. *)

(** {1 Hot-path updates} *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

val gauge_add : gauge -> float -> unit

val gauge_set : gauge -> float -> unit

val gauge_value : gauge -> float

val observe : histogram -> float -> unit

val histogram_total : histogram -> int

(** {1 Export and merge} *)

type value =
  | Count of int
  | Value of float
  | Buckets of { bounds : float array; counts : int array }
      (** [counts] has one more entry than [bounds] (the overflow
          bucket). *)

val snapshot : t -> (string * value) list
(** Every metric in registration order. *)

val absorb : t -> t -> unit
(** [absorb t other] folds every metric of [other] into [t] by name,
    registering missing ones (at the tail, in [other]'s order).
    Counters and gauges add; histograms add bucket-wise (bounds must
    match). [other] is left untouched. *)
