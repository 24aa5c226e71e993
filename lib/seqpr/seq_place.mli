(** Baseline annealing placer in the TimberWolfSC tradition [6]: minimize
    estimated wirelength (bounding-box half-perimeter) plus a channel
    congestion penalty.

    This is the "sequential" side of the paper's comparison: the placer
    sees neither the channel segmentation nor antifuse delays — exactly
    the blindness (paper §2.1) that the simultaneous tool removes.

    One channel of vertical span costs 2 column units. A channel's
    congestion penalty (weight 0.02) is the square of its demand beyond
    55% of [tracks * cols], and a move makes up to 8 attempts to find a
    legal swap. *)

val run :
  seed:int ->
  ?anneal:Spr_anneal.Engine.config ->
  ?should_stop:(unit -> bool) ->
  Spr_arch.Arch.t ->
  Spr_netlist.Netlist.t ->
  (Spr_layout.Placement.t * Spr_anneal.Engine.report, string) Stdlib.result
(** Produces a placement (default pinmaps) optimized for estimated
    wirelength and congestion only, annealing under [?anneal] (sized to
    the netlist when absent) from a random placement drawn from [seed].
    [?should_stop] is polled between annealing moves (the flow engine
    passes the run's stop condition through it); the run then returns
    the placement as annealed so far. *)

val refine :
  ?should_stop:(unit -> bool) ->
  rng:Spr_util.Rng.t ->
  moves:int ->
  Spr_layout.Placement.t ->
  int
(** Zero-temperature greedy descent over an existing placement: propose
    up to [moves] swaps, keeping only the improving ones (mutating the
    placement in place). Returns the number of improvements kept.
    Deterministic given the rng state; [?should_stop] is polled before
    each move and ends the descent early. *)

val wirelength : Spr_layout.Placement.t -> float
(** Current weighted half-perimeter total (vertical weight 2.0), for
    reporting. *)

val self_test :
  ?moves:int ->
  Spr_arch.Arch.t ->
  Spr_netlist.Netlist.t ->
  seed:int ->
  (unit, string) Stdlib.result
(** Oracle for the placer's incremental bookkeeping: runs random
    accepted and rejected moves (default 500) and after each checks the
    incrementally maintained wirelength and congestion totals against a
    from-scratch recomputation. Used by the test suite. *)
