(** Post-layout routing statistics: actual (not estimated) wirelength,
    programmed antifuse counts, and resource utilization.

    These are the physical quantities behind the paper's concerns —
    antifuses on a path cost delay (§1), track supply bounds wirability
    (§2.1) — measured over the claimed segments of the current state.
    The run report's {!Spr_obs.Report.route_summary} is their only
    record. *)

val collect : Route_state.t -> Spr_obs.Report.route_summary

val pp : Format.formatter -> Spr_obs.Report.route_summary -> unit
