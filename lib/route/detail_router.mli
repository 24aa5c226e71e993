(** Incremental detailed routing heuristic (paper §3.4, after Roy [11]).

    Within one channel a net must occupy consecutive free segments of a
    single track covering its column span. Among the feasible tracks the
    router picks the one minimizing

    {v wastage + 3.0 * n_segments v}

    where wastage is the covered length beyond the span and each
    antifuse costs 3.0 column units. Low wastage constructively
    minimizes net length and preserves long segments for long nets; the
    antifuse term avoids chaining many short segments, which would
    accrue antifuse delay. *)

val attempt : Route_state.t -> Spr_util.Journal.t -> net:int -> channel:int -> bool
(** [attempt st j ~net ~channel] tries to detail-route the net's queued
    demand in [channel] (the net must be missing there); claims the
    winning track run via {!Route_state.claim_detail}. *)

val best_track :
  Route_state.t ->
  channel:int ->
  span:Spr_util.Interval.t ->
  (int * int * int * float) option
(** [best_track st ~channel ~span] is the feasibility core of {!attempt}:
    the minimum-cost free run [(track, slo, shi, cost)] covering [span],
    if any. Exposed for the sequential baseline and tests. *)
