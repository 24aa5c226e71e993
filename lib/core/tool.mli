(** Simultaneous placement, global routing and detailed routing
    (paper §3) — the system's primary entry point.

    One annealing process manipulates all design variables concurrently:
    the move set is cell swaps/translations plus pinmap reassignments;
    every placement move rips up the attached nets and triggers an
    incremental global + detailed rerouting cascade and an incremental
    critical-path update; the cost is

    {v Cost = Wg*G + Wd*D + Wt*T        (paper eq. 1) v}

    with no wirelength term — wirelength minimization happens
    constructively inside the routers. Intermediate layouts are
    deliberately incomplete: unroutable nets simply stay queued and
    penalized until the placement becomes compliant.

    {b Crash safety.} With a run directory set, the run writes an
    atomic, checksummed {!Checkpoint.V2} snapshot at temperature
    boundaries and on interruption, rotating the last [snapshot_keep]
    files. Running again with [?resume_dir] continues from the newest
    loadable snapshot mid-schedule, bit-identically to the
    uninterrupted run. Budgets and {!request_interrupt} (or the
    SIGINT/SIGTERM handlers from {!install_signal_handlers}) stop the
    run between moves — the in-flight move always completes — write a
    final checkpoint, and return the best layout seen so far tagged
    [Interrupted].

    {b Fleets.} {!run} anneals [config.parallel.replicas] replicas of
    the whole anneal, one per OCaml domain, each with its own RNG
    stream derived by {!Spr_util.Rng.stream}, its own pipeline, route
    state and profile. One {!Spr_anneal.Scheduler} coordinates them:
    replicas run independently, meet at exchange rounds and adopt the
    fleet-best layout, or race under the predictive early-kill
    scheduler. Each replica's trajectory is a deterministic function of
    [(seed, stream)] and the recorded rounds, and the fleet
    checkpoints and resumes through the same crash-safety layer
    (per-replica snapshots plus persisted round records). A fleet of
    one is the plain serial anneal on the calling domain. *)

(** Grouped, validated run configuration.

    The flat 20-field record this replaces scattered its clamping
    across the run paths; here {!Config.validated} is the single smart
    constructor — every entry point applies it, rejecting nonsense
    (e.g. a move probability outside [0, 1]) as
    [Error (Invalid_config _)] and normalizing the clamped fields in
    one place. Build configurations from {!Config.default} with the
    [with_*] builders: they compose by piping, e.g.
    [Config.(default |> with_seed 7 |> with_validate true)]. *)
module Config : sig
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

  val with_router : Spr_route.Router.config -> t -> t

  val with_timing_driven_routing : bool -> t -> t

  val with_delay_model : Spr_timing.Delay_model.t -> t -> t

  val with_anneal : Spr_anneal.Engine.config -> t -> t

  val with_moves : moves -> t -> t

  val with_pinmap_moves : ?prob:float -> bool -> t -> t
  (** Toggle pinmap moves, optionally setting the probability. *)

  val with_max_swap_tries : int -> t -> t

  val with_weights : weights -> t -> t

  val with_budget : budget -> t -> t

  val with_time_budget : float -> t -> t

  val with_max_moves : int -> t -> t

  val with_stop_after_accepted : int -> t -> t

  val with_cancel_poll : (unit -> bool) -> t -> t

  val with_persistence : persistence -> t -> t

  val with_run_dir : ?snapshot_every:int -> ?snapshot_keep:int -> string -> t -> t

  val with_final_checkpoint : bool -> t -> t

  val with_validation : validation -> t -> t

  val with_validate : ?every:int -> bool -> t -> t

  val with_parallel : parallel -> t -> t

  val with_replicas : ?exchange:Spr_anneal.Portfolio.exchange -> int -> t -> t

  val with_stream : int -> t -> t

  val with_scheduler : scheduler -> t -> t

  val with_scheduler_kind : [ `Barrier | `Racing ] -> t -> t
  (** Switch the scheduler kind; the racing tuning knobs keep their
      current values. *)

  val with_race_margin : float -> t -> t

  val with_race_warmup : int -> t -> t

  val with_race_every : int -> t -> t

  val with_obs : obs -> t -> t

  val with_trace_recording : bool -> t -> t

  val with_trace_file : string -> t -> t

  val with_report_file : string -> t -> t

  val with_run_label : string -> t -> t

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

  val with_flow : flow -> t -> t

  val with_flow_preset : string -> t -> t

  val with_stage_budget : string -> float -> t -> t
  (** [with_stage_budget stage seconds] sets/overwrites one stage's
      wall-clock budget. *)
end

type config = Config.t

val default_config : config
(** [Config.default]. *)

(** {1 Outcomes}

    Stop reasons, statuses and errors are defined once in {!Outcome}
    and re-exported here by type equation, so [Tool.Completed],
    [Outcome.Completed] and friends are the same constructors. *)

type stop_reason = Outcome.stop_reason = Time_budget | Move_budget | Interrupt

type status = Outcome.status =
  | Completed
  | Interrupted of stop_reason
      (** The run stopped early; the result holds the best-so-far
          layout, and the run directory (if set) holds a resumable
          checkpoint. *)

val stop_reason_to_string : stop_reason -> string

type error = Outcome.error =
  | Invalid_config of string
      (** {!Config.validated} rejected the configuration. *)
  | Invalid_design of string
      (** The netlist does not fit the fabric or has combinational
          cycles. *)
  | Audit_failed of Spr_check.Finding.t list
      (** Validation caught an invariant violation mid-run. *)
  | Resume_failed of string  (** The snapshot does not match the design. *)

exception Tool_error of error
(** Raised only by the [_exn] entry points. The same exception as
    {!Outcome.Error} (a rebinding), so either name catches it. *)

val error_to_string : error -> string

type result = {
  place : Spr_layout.Placement.t;
  route : Spr_route.Route_state.t;
  sta : Spr_timing.Sta.t;
  critical_delay : float;  (** ns, from the final full STA. *)
  g : int;
  d : int;
  fully_routed : bool;
  anneal_report : Spr_anneal.Engine.report;
  dynamics : Dynamics.sample list;
  profile : Profile.t;
      (** Cumulative per-phase move-pipeline instrumentation for this
          invocation (not carried across resumes). *)
  cpu_seconds : float;
      (** Process CPU seconds ([Sys.time]) over this invocation, not
          cumulative across resumes. Process-wide: in a fleet it also
          counts the other replicas' domains, so replica values do not
          add up to the fleet's. *)
  status : status;
  best_cost : float;
      (** The delivered layout under the weight-independent best-so-far
          metric (unrouted nets dominate, critical delay breaks
          ties). *)
  report : Spr_obs.Report.t;
      (** The unified run report: routing summary, pipeline breakdown,
          dynamics rows and metrics snapshot in one versioned record —
          callers render or export this instead of re-deriving the
          numbers from the fields above; its clocks cover this
          replica alone. *)
  events : Spr_obs.Trace.event list;
      (** This replica's raw observability stream (spans, temperature
          rows, metrics dump), tagged with its replica index; empty
          unless [Config.obs] enabled recording. The run-level framing
          is added by {!trace_events}. *)
}

type fleet = {
  p_best_replica : int;
      (** Replica delivering the lowest [best_cost] (lowest index on
          ties). *)
  p_results : result array;  (** Indexed by replica. *)
  p_profile : Profile.t;
      (** All replicas' pipeline instrumentation merged
          ({!Profile.absorb}); per-replica profiles and dynamics stay
          available on [p_results]. *)
  p_rounds : Spr_anneal.Scheduler.round_record list;
      (** Every recorded round (tripped or replayed), ascending: each
          exchange round, and each racing round that killed. *)
  p_wall_seconds : float;  (** Whole-fleet wall clock. *)
  p_report : Spr_obs.Report.t;
      (** The fleet report: the winning replica's layout-facing
          numbers with the merged pipeline/metrics, the fleet's CPU
          and wall clocks, and the recorded-round count. *)
}

val best_result : fleet -> result
(** [p.p_results.(p.p_best_replica)]. *)

val run :
  ?config:config ->
  ?resume_dir:string ->
  ?seed_place:Spr_layout.Placement.slot array * int array ->
  ?start_temperature:float ->
  Spr_arch.Arch.t ->
  Spr_netlist.Netlist.t ->
  (fleet, error) Stdlib.result
(** Anneal [config.parallel.replicas] replicas concurrently — replica
    0 on the calling domain, the rest on spawned domains — and return
    the fleet record. Replica [k] draws RNG stream [stream + k]. In a
    fleet of several, replica [k] writes [snap-r<k>-NNNNNNNN.ckpt]
    snapshots into the shared run directory; a fleet of one writes
    plain [snap-NNNNNNNN.ckpt] files. Recorded rounds are persisted as
    [sched-*.rec] records ({!Checkpoint.Round}) before any replica acts
    on them.

    [?resume_dir] restores the whole fleet: each replica resumes from
    its newest loadable snapshot (restarting from scratch
    deterministically when it has none) and recorded rounds are
    replayed, so a killed-and-resumed run matches the uninterrupted
    one. [arch] is ignored for a resumed replica — the restored layout
    carries its fabric — and the annealing schedule comes from the
    snapshot. Interruption (signals, {!request_interrupt}, any
    replica's wall-clock budget, cancel poll or stop injection) stops
    every replica gracefully and freezes further rounds; a move budget
    stops only the replica that spent it.

    [?seed_place] starts the anneal from the given placement — per-cell
    slots and pinmaps, plain data so replicas never share a mutable
    layout — instead of a random one; it is materialized through
    {!Spr_layout.Placement.create_from}, so an inconsistent seed is
    [Error (Invalid_design _)]. [?start_temperature] skips the warmup
    walk and starts cooling at the given temperature (see
    {!Spr_anneal.Engine.run}) — the flow layer derives it from the seed
    placement's cost distribution. Both are ignored by a resumed
    replica. *)

val run_exn :
  ?config:config ->
  ?resume_dir:string ->
  ?seed_place:Spr_layout.Placement.slot array * int array ->
  ?start_temperature:float ->
  Spr_arch.Arch.t ->
  Spr_netlist.Netlist.t ->
  fleet

val trace_events : config:config -> Spr_netlist.Netlist.t -> fleet -> Spr_obs.Trace.event list
(** The fleet trace: [run_start], each replica's stream (closed by its
    [replica_end]) in replica order, one [exchange] row per recorded
    round without kills and [sched.kill]/[sched.clone] rows for each
    killing round, then [run_end]. This is exactly what
    [Config.obs.trace_path] writes. *)

val audit_result : result -> Spr_check.Finding.t list
(** Run the full audit subsystem over a finished layout (placement,
    routing mirrors, STA) — what [spr route --selfcheck] prints. Empty
    means the incremental state matches the from-scratch oracles. *)

(** {1 Graceful interruption}

    A process-wide atomic flag polled between moves by every replica.
    Only a signal or {!request_interrupt} raises it — a fleet spreads
    one replica's own stop through a per-run flag — so it stays raised
    until {!reset_interrupt}, and a Ctrl-C during an earlier flow stage
    still stops the anneal. The CLI installs handlers so Ctrl-C
    finishes the in-flight moves, writes final checkpoints and returns
    the best-so-far result instead of dying mid-update. *)

val request_interrupt : unit -> unit

val reset_interrupt : unit -> unit

val interrupt_requested : unit -> bool

val install_signal_handlers : unit -> unit
(** Route SIGINT and SIGTERM to {!request_interrupt}. Process-wide and
    permanent — for a plain CLI run that owns the process. Embedders
    should prefer {!with_signal_handlers}. *)

val with_signal_handlers : (unit -> 'a) -> 'a
(** Re-entrant form: install the interrupt handlers for the duration of
    the thunk and restore the {e previous} SIGINT/SIGTERM behaviours
    afterwards (exception-safe), so nested or daemon-hosted runs do not
    clobber the host process's signal discipline. *)
