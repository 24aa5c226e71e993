(** Grouped, validated run configuration.

    The flat 20-field record this replaces scattered its clamping
    across the run paths; here {!Config.validated} is the single smart
    constructor — every entry point applies it, rejecting nonsense
    (e.g. a move probability outside [0, 1]) as
    [Error (Invalid_config _)] and normalizing the clamped fields in
    one place. Build configurations from {!Config.default} with the
    [with_*] builders: they compose by piping, e.g.
    [Config.(default |> with_seed 7 |> with_validate true)]. *)

type moves = {
  pinmap_move_prob : float;
      (** Fraction of moves that reassign a pinmap instead of
          swapping cells (paper §3.2 move set). Must lie in
          [0, 1]. *)
  enable_pinmap_moves : bool;  (** Off for the A2 ablation. *)
  max_swap_tries : int;
      (** Attempts to find a legal swap per move; must be >= 1. *)
}

type weights = {
  g_per_net : float;  (** See {!Spr_anneal.Weights}. *)
  d_per_net : float;
  t_emphasis : float;
}

type budget = {
  time_budget : float option;
      (** Wall seconds for this invocation; the run stops gracefully
          once exceeded (checked between moves). *)
  max_moves : int option;
      (** Total annealing moves (cumulative across resumes). *)
  stop_after_accepted : int option;
      (** Fault injection: stop (as [Interrupt]) once this many
          moves have been accepted, cumulative across resumes. In a
          fleet, any replica tripping it stops the whole
          fleet. *)
  poll : (unit -> bool) option;
      (** External cancellation hook, polled between moves alongside
          the budgets: the first poll returning [true] stops the run
          gracefully as [Interrupt] (final checkpoint, best-so-far
          result) — the service layer's per-job cancellation rides
          this. The closure runs on every replica's domain and must
          be cheap and thread-safe. *)
}

type persistence = {
  run_dir : string option;
      (** Directory for {!Checkpoint.V2} snapshots; [None] disables
          checkpointing entirely. *)
  snapshot_every : int;
      (** Write a snapshot every this many temperature boundaries
          (normalized to >= 1). *)
  snapshot_keep : int;  (** Rotation depth (normalized to >= 1). *)
  final_checkpoint : bool;
      (** Write a snapshot when the run is interrupted (default).
          The crash-fault-injection harness turns this off so an
          injected "crash" leaves only the periodic snapshots
          behind, exactly like a real [kill -9]. *)
}

type validation = {
  validate : bool;
      (** Run the full {!Spr_check.Audit} subsystem (placement
          bijection, routing-mirror oracle, from-scratch STA diff)
          every temperature, every [validate_every] accepted moves,
          and on the final state; any finding makes the run return
          [Error (Audit_failed _)]. *)
  validate_every : int;
      (** Accepted moves between audits when [validate] is on
          (normalized to >= 1). *)
}

type scheduler = {
  kind : [ `Barrier | `Racing ];
      (** [`Barrier] meets only at [exchange] rounds. [`Racing]
          fits an online predictor on each replica's annealing
          dynamics and early-kills replicas whose predicted terminal
          quality trails the fleet leader, reallocating their domains
          to clone-and-perturb forks of the leader. *)
  race_margin : float;
      (** Kill threshold in unrouted-net units: a replica dies only
          when its predicted terminal metric trails the leader's by
          more than this margin plus both fit uncertainties. Must be
          finite and >= 0 (default 1.0). *)
  race_warmup : int;
      (** Temperature steps before the first racing decision round;
          kills based on too-early dynamics are noise. Must be >= 0
          (default 10). *)
  race_every : int;
      (** Temperature steps between racing decision rounds. Must be
          >= 1 (default 5). Decision rounds rendezvous on masked
          trace content, so racing is bit-reproducible, and killing
          rounds persist as [sched-*.rec] records so kill+resume
          matches the uninterrupted run. *)
}

type parallel = {
  replicas : int;  (** Fleet width K; must be >= 1. *)
  exchange : Spr_anneal.Portfolio.exchange;
      (** Cross-replica layout exchange policy; only meaningful when
          [replicas > 1], and only under the [`Barrier] scheduler
          ({!validated} rejects [`Racing] + [Best_exchange]). *)
  scheduler : scheduler;
      (** Which replica scheduler coordinates the fleet; only
          meaningful when [replicas > 1]. *)
  stream : int;
      (** The derived RNG stream ({!Spr_util.Rng.stream}) replica 0
          draws from; replica [k] draws [stream + k], and stream 0 is
          exactly [Rng.create seed]. So the winner [k] of a default
          fleet reproduces standalone as a one-replica run with
          [with_stream k]. Racing forks draw fresh streams from
          [replicas] upward. Must be >= 0. *)
  route_grain : int;
      (** Inert stub, read by nothing: [bench/ledger/traced.ml] still
          passes it to {!Move_pipeline.create}. No [with_*]
          function, flag or validation sets it. *)
}

type obs = {
  record : bool;
      (** Record span/temperature/metric events in memory even when
          no trace file is requested, surfacing them on
          [result.events]. Off by default — with recording off every
          instrumentation point is a strict no-op. *)
  trace_path : string option;
      (** Write the schema-versioned JSONL event trace here
          (implies recording). *)
  report_path : string option;
      (** Write the {!Spr_obs.Report} JSON here. *)
  label : string option;  (** Run label in traces and reports. *)
  on_event : (Spr_obs.Trace.event -> unit) option;
      (** Live event hook (implies recording): every trace event is
          handed to the callback synchronously as it is emitted, on
          the emitting replica's domain — this is how the service
          daemon streams [spr-trace-1] events to a client while the
          job runs. Fleet replicas share the one callback, so it
          must lock any shared state; exceptions it raises abort the
          run. *)
}

type flow = {
  preset : string;
      (** Named flow preset ([sa], [ap+sa], [ap+greedy+route], [seq])
          or any ['+']-joined chain of valid stage names. The tool's
          own entry points only ever run the [sa] stage; the full
          multi-stage interpretation lives in [Spr_flow] (which sits
          above this library) — the vocabulary and validation live
          here so {!validated} rejects bad flows up front. *)
  stage_budgets : (string * float) list;
      (** Per-stage wall-second budgets, keyed by stage name. Every
          key must be a stage of the chosen preset and every budget a
          positive finite number of seconds. *)
}

type t = {
  seed : int;
  router : Spr_route.Router.config;
  timing_driven_routing : bool;
      (** Order the rip-up/retry queues by net criticality (the
          driver's current arrival time) ahead of estimated length,
          as the routers the paper builds on do for critical nets.
          Off by default. *)
  delay_model : Spr_timing.Delay_model.t;
  anneal : Spr_anneal.Engine.config option;
      (** [None]: sized to the netlist. *)
  moves : moves;
  weights : weights;
  budget : budget;
  persistence : persistence;
  validation : validation;
  parallel : parallel;
  obs : obs;
  flow : flow;
}

val default : t
(** [seed = 1], [pinmap_move_prob = 0.15], pinmap moves on, default
    router/delay/weight parameters, auto-sized annealing, no
    validation ([validate_every = 50]), no budgets, no checkpointing
    ([snapshot_every = 1], [snapshot_keep = 3],
    [final_checkpoint = true]), serial ([replicas = 1],
    [Independent], [`Barrier] scheduler, [stream = 0]). *)

val scheduler_to_string : [ `Barrier | `Racing ] -> string
(** ["barrier"] or ["racing"]. *)

val scheduler_of_string : string -> ([ `Barrier | `Racing ], string) Stdlib.result
(** Inverse of {!scheduler_to_string}; rejects any other spelling
    with a message naming the valid ones. *)

val validated : t -> (t, string) Stdlib.result
(** The smart constructor: rejects out-of-range fields (move
    probability outside [0, 1], non-positive replica count or
    exchange period, negative budgets or stream, non-finite
    weights...) with one message naming every offending field, and
    normalizes the clamped fields ([validate_every],
    [snapshot_every], [snapshot_keep] to >= 1). Every entry point
    calls this; [Ok] configurations pass through it unchanged. *)

(** {2 Builders} — each returns an updated copy; pipe them. *)

val with_seed : int -> t -> t

val with_timing_driven_routing : bool -> t -> t

val with_anneal : Spr_anneal.Engine.config -> t -> t

val with_pinmap_moves : ?prob:float -> bool -> t -> t
(** Toggle pinmap moves, optionally setting the probability. *)

val with_max_swap_tries : int -> t -> t

val with_weights : weights -> t -> t

val with_time_budget : float -> t -> t

val with_max_moves : int -> t -> t

val with_stop_after_accepted : int -> t -> t

val with_cancel_poll : (unit -> bool) -> t -> t

val with_run_dir : ?snapshot_every:int -> ?snapshot_keep:int -> string -> t -> t

val with_final_checkpoint : bool -> t -> t

val with_validate : ?every:int -> bool -> t -> t

val with_replicas : ?exchange:Spr_anneal.Portfolio.exchange -> int -> t -> t

val with_stream : int -> t -> t

val with_scheduler_kind : [ `Barrier | `Racing ] -> t -> t
(** Switch the scheduler kind; the racing tuning knobs keep their
    current values. *)

val with_race_margin : float -> t -> t

val with_race_warmup : int -> t -> t

val with_race_every : int -> t -> t

val with_trace_recording : bool -> t -> t

val with_trace_file : string -> t -> t

val with_report_file : string -> t -> t

val with_on_event : (Spr_obs.Trace.event -> unit) -> t -> t

(** {2 Flow vocabulary} *)

val flow_stage_names : string list
(** The five stage names: [ap; sa; greedy; route; sta]. *)

val flow_preset_names : string list
(** The registered named presets: [sa; ap+sa; ap+greedy+route; seq]. *)

val flow_stages_of_preset : string -> (string list, string) Stdlib.result
(** Resolve a preset name (or an ad-hoc ['+']-joined stage chain) to
    its stage list. Rejects unknown stage names, repeats, and
    impossible orders ([ap] anywhere but first, [route] with nothing
    placed, [sta] with nothing routed), with a message listing the
    valid presets. *)

val with_flow_preset : string -> t -> t

val with_stage_budget : string -> float -> t -> t
(** [with_stage_budget stage seconds] sets/overwrites one stage's
    wall-clock budget. *)
