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

module Config = Config
(** The run configuration ({!Config}). *)

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
