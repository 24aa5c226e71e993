(** Timing auditor: from-scratch levelized recompute of every net delay
    and arrival time, diffed against the incremental analyzer's answers.

    The incremental STA propagates arrival changes through a frontier and
    stops where outputs stop moving; a missed invalidation leaves stale
    arrivals that bias every subsequent cost decision. This auditor
    rebuilds the full timing picture independently — levelization, net
    delays via {!Spr_timing.Net_delay.sink_delays}, arrivals in level
    order — and compares per-cell output arrivals and the critical delay
    within 1e-6 ns. *)

val run : Spr_timing.Sta.t -> Spr_route.Route_state.t -> Finding.t list
(** [run sta rs] — [rs] must be the state [sta] was created over. Empty
    when the incremental arrivals match the oracle. Cost: one full
    STA. *)
