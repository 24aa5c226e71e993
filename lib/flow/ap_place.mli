(** Deterministic analytical seed placement.

    A quadratic wirelength placer in the bound2bound tradition
    (Spindler et al., and the analytical stages of OpenPARF /
    FPGA-CAD-Framework flows): I/O pads are anchored on a canonical
    clockwise perimeter walk, every multi-terminal net is decomposed
    into bound2bound two-pin edges whose weights are refreshed from the
    current positions between passes, each pass solves the two
    independent normal systems (one per axis) by conjugate gradient,
    and the final continuous positions are legalized onto the row
    fabric by sorted spreading (cells sorted by [y] fill rows in
    proportion to their free capacity; within a row, sorted by [x]
    left to right).

    Everything is a deterministic function of [(arch, netlist, seed)] —
    the only randomness is a seed-derived jitter that breaks the
    symmetry of the all-cells-at-center start — so the same inputs
    yield a bit-identical placement on every run. Ten outer passes of
    at most 200 conjugate-gradient iterations each (relative residual
    1e-6) start from a jitter of 0.15 slots around the center. *)

type result = {
  ap_slots : Spr_layout.Placement.slot array;  (** Indexed by cell id. *)
  ap_pinmaps : int array;  (** All zero — pinmaps are the anneal's job. *)
  ap_hpwl : float;
      (** Half-perimeter wirelength of the legalized placement, for
          reporting. *)
}

val run :
  ?deadline:(unit -> bool) ->
  seed:int ->
  Spr_arch.Arch.t ->
  Spr_netlist.Netlist.t ->
  (result, string) Stdlib.result
(** Fails when the netlist does not fit the fabric. [?deadline] is
    polled between outer passes; when it fires the current positions
    are legalized and returned (the result is then still deterministic
    only if the deadline fires deterministically — budgeted runs trade
    reproducibility for the bound, exactly like the anneal's own time
    budget). *)
