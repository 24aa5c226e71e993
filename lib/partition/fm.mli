(** Fiduccia-Mattheyses bipartitioning [20], the workhorse behind the
    multi-FPGA partitioning approaches the paper surveys in §2.2: very
    large circuits must be split across chips before row-based layout,
    with the cut size driving inter-chip pin demand and delay.

    Iterative passes: every cell starts unlocked; the highest-gain
    balanced move is applied and the cell locked; at the end of a pass
    the best prefix of moves is kept. Passes repeat until one fails to
    improve. Gains use the standard FM rules (a net contributes +1 when
    the mover is its last cell on the from-side, -1 when the to-side was
    empty). *)

type result = {
  side : bool array;  (** Per cell id: [false] = side A, [true] = side B. *)
  cut_nets : int;  (** Nets with cells on both sides. *)
  passes : int;
}

val bipartition :
  ?balance:float ->
  rng:Spr_util.Rng.t ->
  Spr_netlist.Netlist.t ->
  result
(** [balance] (default 0.10) allows each side to deviate from half the
    cells by that fraction of the total. Passes run until one gains
    nothing, at most 12. The initial partition is a random balanced
    split drawn from [rng]. *)

val cut_size : Spr_netlist.Netlist.t -> bool array -> int
(** Nets spanning both sides under the given assignment. *)
