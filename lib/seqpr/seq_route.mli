(** Baseline routing for a frozen placement: one-shot global routing then
    per-channel detailed routing, improved by a bounded
    rip-up-and-retry loop.

    The router primitives are shared with the simultaneous tool (same
    fabric, same heuristics); the improvement loop compensates for the
    baseline's lack of placement flexibility: when a net cannot be
    routed, the victims blocking its cheapest track (or spine) are ripped
    up and everything is re-attempted longest-first. *)

val run :
  ?router:Spr_route.Router.config ->
  ?should_stop:(unit -> bool) ->
  rng:Spr_util.Rng.t ->
  Spr_route.Route_state.t ->
  unit
(** The rip-up-and-retry loop runs at most 25 iterations. The state is
    left with whatever could be routed; inspect
    {!Spr_route.Route_state.fully_routed}. [?should_stop] is polled
    between rip-up-and-retry iterations, so the flow engine's stop
    condition ends the loop without leaving the state mid-commit. *)
