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

    The flow vocabulary, the named presets ([sa], [ap+sa],
    [ap+greedy+route], [seq]) and the validation rules live in
    {!Spr_core.Tool.Config} (the [flow] sub-record) so every entry
    point rejects bad flows up front; this module is the interpreter.
    The [sa] stage is one {!Spr_core.Tool.run} over the configured
    fleet, so preset [sa] is exactly that run.

    Per-stage wall-clock budgets ([Config.flow.stage_budgets]) bound
    each stage; completed stage boundaries are persisted under
    [Config.persistence.run_dir] ([flow.json] plus a v1 layout
    checkpoint per stage) so an interrupted multi-stage flow resumes at
    the last boundary, while an in-flight [sa] stage rides the existing
    V2 snapshot machinery. With [Config.obs.trace_path] set, the stage
    spans of the whole flow land in one [spr-trace-1] stream. *)

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
      (** The [sa] stage's fleet record; [None] for flows without an
          [sa] stage. *)
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
  ?resume_dir:string ->
  Spr_arch.Arch.t ->
  Spr_netlist.Netlist.t ->
  (result, Spr_core.Tool.error) Stdlib.result
(** Run [config.flow.preset]. [?resume_dir] resumes a multi-stage flow
    from its last persisted stage boundary (and an in-flight [sa] from
    its V2 snapshots); a directory holding no usable state, or state
    from a different preset, starts fresh — determinism replays the
    lost trajectory. *)

val run_exn :
  ?config:Spr_core.Tool.config ->
  ?resume_dir:string ->
  Spr_arch.Arch.t ->
  Spr_netlist.Netlist.t ->
  result
(** @raise Spr_core.Tool.Tool_error on any error. *)
