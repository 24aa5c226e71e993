(** The composable flow-stage engine.

    A flow is a validated list of named stages, each consuming and
    producing a layout-state snapshot:

    - [ap] — deterministic analytical seed placement (quadratic
      bound-to-bound wirelength, conjugate gradient, row legalization;
      {!Ap_place});
    - [sa] — the simultaneous place-and-route anneal
      ({!Spr_core.Tool}), seeded from the preceding placement (if any)
      at a reduced starting temperature derived from the seed's cost
      distribution;
    - [greedy] — the baseline TimberWolf-style wirelength placer when
      first, a zero-temperature greedy descent otherwise;
    - [route] — the baseline sequential router with rip-up-and-retry;
    - [sta] — a full static timing analysis of the routed state.

    The four presets ([sa], [ap+sa], [ap+greedy+route], [seq]) are the
    only flows; they and their validation live in
    {!Spr_core.Tool.Config} (the [flow] field) so every entry point
    rejects bad flows up front; this module is the interpreter. The
    [sa] stage is one {!Spr_core.Tool.run} over the configured fleet,
    so preset [sa] is exactly that run.

    Every stage stops on one condition: the interrupt flag or
    [Config.budget.time_budget] spent since the flow began. The flow
    checks it before each stage, [ap], [greedy] and [route] poll it,
    and [sa] spends what is left of the budget. Under
    [Config.persistence.run_dir], every completed stage that produces a
    layout ([ap], [greedy], [route], a preset's last stage included)
    writes a v1 layout checkpoint [stage-NN-<stage>.ckpt], the flow's
    only progress record; a stopped stage writes none. [sta] is
    recomputed on resume, and an [sa] stage rides the V2 snapshot
    machinery of {!Spr_core.Tool.run}. With [Config.obs.trace_path]
    set, the stage spans of the whole flow land in one [spr-trace-1]
    stream. *)

module Ap_place = Ap_place

type stage_record = {
  sg_name : string;
  sg_seconds : float;  (** Stage wall clock. *)
  sg_detail : string;  (** One-line human summary. *)
}

type result = {
  f_place : Spr_layout.Placement.t;
  f_route : Spr_route.Route_state.t;
  f_sta : Spr_timing.Sta.t;
  f_critical_delay : float;  (** ns. *)
  f_g : int;
  f_d : int;
  f_fully_routed : bool;
  f_stages : stage_record list;  (** In execution order. *)
  f_seed_temperature : float option;
      (** The probed reduced starting temperature, when a seeded [sa]
          stage ran. *)
  f_fleet : Spr_core.Tool.fleet option;
      (** The [sa] stage's fleet record; [None] when no [sa] stage ran. *)
  f_status : Spr_core.Tool.status;
      (** The [sa] winner's status when [sa] ran, else [Completed] or
          the stop condition's reason. *)
}

val preset_names : string list
(** The registered preset names, for help strings. *)

val stages_of_preset : string -> (string list, string) Stdlib.result
(** Re-export of {!Spr_core.Tool.Config.flow_stages_of_preset}. *)

val chi_seeded : float
(** Acceptance fraction the seeded anneal opens at; the probe derives
    the reduced T0 as [avg_uphill / -ln chi_seeded]. *)

val stage_seconds : result -> float
(** Sum of the per-stage wall clocks. *)

val sa_moves : result -> int
(** Annealing moves the [sa] stage spent (best replica's, under a
    fleet); [0] for flows without an [sa] stage. *)

val run :
  ?config:Spr_core.Tool.config ->
  ?resume:bool ->
  Spr_arch.Arch.t ->
  Spr_netlist.Netlist.t ->
  (result, Spr_core.Tool.error) Stdlib.result
(** Run [config.flow]. A stopped stage ends the flow with the layout it
    holds: after [ap] or [greedy] the placement, unrouted; after
    [route] the partial routing; with an STA built from scratch.

    [config.persistence.run_dir] belongs to one run, so a fresh run
    needs a new or empty one. [~resume:true] resumes from it (and is
    [Error (Invalid_config _)] without one): a multi-stage flow after
    the latest stage checkpoint that loads, trying earlier ones when it
    does not, and an [sa] stage from its V2 snapshots; a seeded [sa]
    re-probes its T0 from the restored placement. [ap], [greedy] and
    [route] keep no mid-stage state, so a stopped stage runs again from
    its start. With no loadable stage checkpoint the flow starts fresh:
    determinism replays the lost trajectory. *)

val run_exn :
  ?config:Spr_core.Tool.config ->
  ?resume:bool ->
  Spr_arch.Arch.t ->
  Spr_netlist.Netlist.t ->
  result
(** @raise Spr_core.Tool.Tool_error on any error. *)
