(** Incremental engineering-change-order (ECO) edits on a finished
    layout.

    The same transactional machinery that powers the annealer is exposed
    as a user-facing API: move or swap cells, or change a pinmap, and the
    attached nets are ripped up, incrementally rerouted, and the critical
    path incrementally re-timed. An edit that leaves nets unroutable can
    be kept or rolled back based on the returned delta. *)

type t

type delta = {
  moved_cells : int list;
  rerouted_nets : int list;  (** Nets whose embedding changed. *)
  unrouted_before : int;
  unrouted_after : int;
  delay_before_ns : float;
  delay_after_ns : float;
}

val create : Spr_route.Route_state.t -> Spr_timing.Sta.t -> t
(** Wrap an existing layout (e.g. a {!Tool.result}, or a loaded
    {!Checkpoint}). The state is mutated in place by committed edits. *)

val of_result : Tool.result -> t

val move_cell : t -> cell:int -> dest:Spr_layout.Placement.slot -> (delta, string) Stdlib.result
(** Move a cell to [dest]; if occupied, the occupant swaps back to the
    cell's slot. Fails (leaving the layout untouched) when the resulting
    positions are illegal. The edit is left {e pending}: call {!commit}
    or {!rollback}. *)

val swap_cells : t -> int -> int -> (delta, string) Stdlib.result

val set_pinmap : t -> cell:int -> index:int -> (delta, string) Stdlib.result

val commit : t -> unit
(** Keep the pending edit. *)

val rollback : t -> unit
(** Discard the pending edit, restoring the layout exactly. *)

val pending : t -> bool

val critical_delay : t -> float

val unrouted : t -> int
