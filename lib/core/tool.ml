let log_src = Logs.Src.create "spr.tool" ~doc:"Simultaneous place-and-route progress"

module Log = (val Logs.src_log log_src : Logs.LOG)

module P = Spr_layout.Placement
module Rs = Spr_route.Route_state
module Router = Spr_route.Router
module Sta = Spr_timing.Sta
module J = Spr_util.Journal
module Portfolio = Spr_anneal.Portfolio
module Scheduler = Spr_anneal.Scheduler

module Config = Config

type config = Config.t

let default_config = Config.default

type stop_reason = Time_budget | Move_budget | Interrupt

type status = Completed | Interrupted of stop_reason

let stop_reason_to_string = function
  | Time_budget -> "time budget"
  | Move_budget -> "move budget"
  | Interrupt -> "interrupt"

let status_to_string = function
  | Completed -> "completed"
  | Interrupted reason -> Printf.sprintf "interrupted (%s)" (stop_reason_to_string reason)

type error =
  | Invalid_config of string
  | Invalid_design of string
  | Audit_failed of Spr_check.Finding.t list
  | Resume_failed of string

exception Tool_error of error

let error_to_string = function
  | Invalid_config msg -> "invalid configuration: " ^ msg
  | Invalid_design msg -> "invalid design: " ^ msg
  | Audit_failed findings ->
    "invariant audit failed:\n" ^ Spr_check.Finding.summarize findings
  | Resume_failed msg -> "resume failed: " ^ msg

(* --- graceful interruption ---
   Set only by a signal or [request_interrupt]: a fleet spreads one
   replica's stop through its own per-run flag instead. Atomic so that
   replicas on other domains observe it promptly; the signal handler
   still runs on the main domain. *)

let interrupt_flag = Atomic.make false

let request_interrupt () = Atomic.set interrupt_flag true

let reset_interrupt () = Atomic.set interrupt_flag false

let interrupt_requested () = Atomic.get interrupt_flag

(* SIGINT and SIGTERM raise the flag while the thunk runs. The previous
   behaviours are saved and restored however the thunk exits, so a run
   hosted by another process (the service worker, tests) cannot clobber
   the host's handlers. *)
let with_signal_handlers f =
  let handle _ = request_interrupt () in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle handle) in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle handle) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigterm prev_term)
    f

type result = {
  place : P.t;
  route : Rs.t;
  sta : Sta.t;
  critical_delay : float;
  g : int;
  d : int;
  fully_routed : bool;
  anneal_report : Spr_anneal.Engine.report;
  profile : Profile.t;
  cpu_seconds : float;
  status : status;
  best_cost : float;
  report : Spr_obs.Report.t;
  events : Spr_obs.Trace.event list;
}

let run_label (config : Config.t) = Option.value config.Config.obs.Config.label ~default:"run"

(* One move = one transaction, run by the five-phase {!Move_pipeline}:
   [propose] applies everything (placement delta, rip-ups, reroutes,
   timing propagation) into the shared journal; accept commits it,
   reject rolls the whole cascade back.

   The layout-bearing fields are mutable because a fleet replica
   can adopt the fleet-best layout at an exchange boundary: the whole
   place/route/timing complex is swapped out mid-run while the engine,
   weights and dynamics recorder carry on. Every closure handed to the
   engine reads these fields through [s], never through a captured
   alias. *)
type session = {
  mutable place : P.t;
  mutable rs : Rs.t;
  mutable sta : Sta.t;
  weights : Spr_anneal.Weights.t;
  mutable pipeline : Move_pipeline.t;
  dyn : Dynamics.t;
  mutable accepted_since_audit : int;
}

let session_cost s =
  Spr_anneal.Weights.cost s.weights ~g:(Rs.g_count s.rs) ~d:(Rs.d_count s.rs)
    ~delay:(Sta.critical_delay s.sta)

(* Best-so-far comparisons need a metric that is stable across the whole
   run, so it cannot use the adaptive weights (their normalization
   drifts between temperatures): unrouted nets dominate, critical delay
   breaks ties. The same metric compares replicas across a fleet,
   precisely because it is weight-independent. *)
let best_metric ~rs ~sta =
  (float_of_int (Rs.g_count rs + Rs.d_count rs) *. 1e9) +. Sta.critical_delay sta

(* The full audit subsystem: placement bijection/legality, the routing
   mirror oracle, and a from-scratch STA diff. Failing here turns a
   silently corrupted cost function into an immediate, attributable
   structured error. *)
exception Audit_failure of Spr_check.Finding.t list

let validate_now s =
  match Spr_check.Audit.run_all ~sta:s.sta s.rs with
  | [] -> ()
  | findings -> raise (Audit_failure findings)

let timing_router ~(config : Config.t) ~sta nl =
  if not config.timing_driven_routing then config.router
  else begin
    let crit net =
      Sta.arrival_out sta (Spr_netlist.Netlist.net nl net).Spr_netlist.Netlist.driver
    in
    { config.router with Router.criticality = Some crit }
  end

(* The move pipeline around a canonical layout, fresh, resumed or
   adopted. The router's criticality closure captures [sta], so every
   new timing picture needs a new pipeline. *)
let new_pipeline ?profile ~(config : Config.t) ~weights rs sta =
  Move_pipeline.create ?profile
    ~router:(timing_router ~config ~sta (P.netlist (Rs.place rs)))
    ~pinmap_move_prob:config.moves.pinmap_move_prob
    ~enable_pinmap_moves:config.moves.enable_pinmap_moves
    ~max_swap_tries:config.moves.max_swap_tries ~place:(Rs.place rs) ~rs ~sta ~weights
    ~journal:(J.create ()) ()

(* A replica's view of the fleet it runs in. *)
type replica_ctx = {
  rep_index : int;
  rep_tag : int option;
      (* Snapshot file tag: [Some rep_index] in a fleet of several; a
         lone replica writes the plain [snap-*] names. *)
  rep_sched : Scheduler.t;
  rep_stop : bool Atomic.t;
      (* The fleet's stop flag: raised by the first replica to stop on
         a wall-clock budget or interrupt, polled by the others. *)
}

(* Swap the session onto a broadcast layout: decode it, rebuild the
   timing picture canonically, and build a fresh pipeline around the
   new state — continuing the existing profile, weights, dynamics and
   RNG stream. *)
let adopt_layout ~(config : Config.t) s (r : Scheduler.round_record) =
  let nl = P.netlist s.place in
  match Checkpoint.of_string nl r.Scheduler.payload with
  | Error e ->
    Log.warn (fun m ->
        m "round %d: broadcast layout failed to decode (%s); keeping own layout"
          r.Scheduler.round e)
  | Ok rs ->
    let place = Rs.place rs in
    let sta = Sta.create config.delay_model rs in
    let pipeline =
      new_pipeline ~profile:(Move_pipeline.profile s.pipeline) ~config ~weights:s.weights rs sta
    in
    s.place <- place;
    s.rs <- rs;
    s.sta <- sta;
    s.pipeline <- pipeline;
    Log.info (fun m ->
        m "adopted the layout of replica %d at round %d (metric %.4g)" r.Scheduler.leader
          r.Scheduler.round r.Scheduler.metric)

(* The annealing loop shared by fresh and resumed runs. [s] is a fully
   initialized session whose STA is canonical (freshly built or
   [full_update]d); [resume] carries the engine schedule position when
   continuing from a snapshot; [ctx] places the run in its fleet. *)
let anneal_session ?resume ?start_temperature ~ctx ~(config : Config.t) ~rng ~best s =
  let nl = P.netlist s.place in
  let n_routable = max 1 (Rs.n_routable s.rs) in
  let profile = Move_pipeline.profile s.pipeline in
  let batch_mark = ref (Profile.mark profile) in
  let replica = ctx.rep_tag in
  (* Per-temperature acceptance ratios, bucketed by decile, registered
     next to the pipeline's metrics so one snapshot carries both. *)
  let acceptance_hist =
    Spr_obs.Metrics.histogram (Profile.registry profile)
      ~bounds:[| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 |]
      "anneal.acceptance"
  in
  let on_temperature (ts : Spr_anneal.Engine.temp_stats) =
    Spr_anneal.Weights.adapt s.weights;
    if config.validation.validate then validate_now s;
    let phase_seconds, move_seconds, moves = Profile.since profile !batch_mark in
    batch_mark := Profile.mark profile;
    Log.debug (fun m ->
        m "temp %d T=%.4g acc=%d/%d G=%d D=%d delay=%.2fns"
          ts.Spr_anneal.Engine.temp_index ts.Spr_anneal.Engine.temperature
          ts.Spr_anneal.Engine.accepted ts.Spr_anneal.Engine.attempted (Rs.g_count s.rs)
          (Rs.d_count s.rs) (Sta.critical_delay s.sta));
    Log.debug (fun m ->
        m "temp %d phases [%s] move=%.1fms batch=%.1fms (%d moves)"
          ts.Spr_anneal.Engine.temp_index
          (String.concat ", "
             (List.map
                (fun p ->
                  Printf.sprintf "%s %.1fms" (Profile.phase_name p)
                    (1e3 *. phase_seconds.(Profile.phase_index p)))
                Profile.phases))
          (1e3 *. move_seconds)
          (1e3 *. ts.Spr_anneal.Engine.batch_seconds)
          moves);
    let acceptance =
      if ts.Spr_anneal.Engine.attempted = 0 then 0.0
      else
        float_of_int ts.Spr_anneal.Engine.accepted
        /. float_of_int ts.Spr_anneal.Engine.attempted
    in
    Dynamics.flush s.dyn ~phase_seconds ~temp_index:ts.Spr_anneal.Engine.temp_index
      ~temperature:ts.Spr_anneal.Engine.temperature
      ~g_frac:(float_of_int (Rs.g_count s.rs) /. float_of_int n_routable)
      ~d_frac:(float_of_int (Rs.d_count s.rs) /. float_of_int n_routable)
      ~acceptance ~cost:(session_cost s)
      ~critical_delay:(Sta.critical_delay s.sta);
    Spr_obs.Metrics.observe acceptance_hist acceptance;
    if Spr_obs.Obs.recording () then
      Option.iter
        (fun row -> Spr_obs.Obs.emit (Spr_obs.Trace.Temp row))
        (Dynamics.last_sample s.dyn);
    (* Scheduling AFTER the batch's own dynamics are flushed, so the
       trace describes what this replica actually annealed. The metric
       handed to the scheduler is a function of masked trace content,
       so exchange decisions replay. *)
    match
      Scheduler.observe ctx.rep_sched ~replica:ctx.rep_index
        ~temp_index:ts.Spr_anneal.Engine.temp_index
        ~metric:(best_metric ~rs:s.rs ~sta:s.sta)
        ~capture:(fun () -> Checkpoint.to_string s.rs)
    with
    | Scheduler.Continue -> ()
    | Scheduler.Adopt r -> adopt_layout ~config s r
  in
  (* Budgets and interruption. The engine polls between moves, so the
     in-flight move always completes; the first tripped condition
     sticks. A wall-clock or interrupt stop spreads to the whole fleet
     through [rep_stop], so the run directory freezes in one coherent
     state. A move budget does NOT spread: every replica trips its own
     at a deterministic point of its own trajectory, and the scheduler
     drops a stopped replica from the active set, so the survivors'
     rounds still trip — fleet results under a move budget stay
     scheduling-independent. *)
  let watch = Spr_util.Clock.start () in
  let stop_reason = ref None in
  let should_stop ~moves ~accepted =
    (match !stop_reason with
    | Some _ -> ()
    | None ->
      stop_reason :=
        (if interrupt_requested () || Atomic.get ctx.rep_stop then Some Interrupt
         else
           match config.budget.max_moves with
           | Some m when moves >= m -> Some Move_budget
           | _ -> (
             match config.budget.time_budget with
             | Some b when Spr_util.Clock.elapsed watch >= b -> Some Time_budget
             | _ -> (
               match config.budget.stop_after_accepted with
               | Some k when accepted >= k -> Some Interrupt
               | _ -> None)));
      (match !stop_reason with
      | Some (Time_budget | Interrupt) -> Atomic.set ctx.rep_stop true
      | Some Move_budget | None -> ()));
    !stop_reason <> None
  in
  let track_best =
    config.persistence.run_dir <> None
    || config.budget.time_budget <> None
    || config.budget.max_moves <> None
    || config.budget.stop_after_accepted <> None
  in
  let ckpt_dir =
    match config.persistence.run_dir with
    | None -> None
    | Some dir ->
      Spr_util.Persist.ensure_dir dir;
      Some (dir, ref (Checkpoint.V2.next_seq ?replica dir))
  in
  let on_checkpoint ~at (snap : Spr_anneal.Engine.snapshot) =
    if track_best then begin
      (* Canonicalize the incremental STA so the snapshot, the continued
         run, and any resumed run all proceed from the same timing
         state. *)
      Sta.full_update s.sta;
      let metric = best_metric ~rs:s.rs ~sta:s.sta in
      if metric < fst !best then best := (metric, Some (Checkpoint.to_string s.rs));
      (* After a fleet stop a replica may have been released from an
         untripped round without the decision it would have received
         uninterrupted, so everything past that point is off the
         uninterrupted trajectory. Suppressing post-stop snapshot FILES
         makes resume replay from the last faithful boundary — the
         property that lets a killed fleet reproduce the uninterrupted
         run exactly. A lone replica meets no rounds, so its snapshots
         stay faithful after a stop. The in-memory best keeps updating:
         it only feeds this run's reported result, never a resume. *)
      match ckpt_dir with
      | Some _ when replica <> None && Atomic.get ctx.rep_stop -> ()
      | None -> ()
      | Some (dir, seq) ->
        let due =
          match at with
          | `Boundary ->
            snap.Spr_anneal.Engine.s_temp_index mod config.persistence.snapshot_every = 0
          | `Stop -> config.persistence.final_checkpoint
        in
        if due then begin
          let best_cost, best_layout = !best in
          let payload =
            {
              Checkpoint.V2.engine = snap;
              rng_state = Spr_util.Rng.state rng;
              weights = Spr_anneal.Weights.dump s.weights;
              dyn_flags = Dynamics.perturbed_flags s.dyn;
              dyn_samples = Dynamics.samples s.dyn;
              accepted_since_audit = s.accepted_since_audit;
              memo = Rs.memo s.rs;
              best_cost;
              best_layout =
                (match best_layout with Some t -> t | None -> Checkpoint.to_string s.rs);
            }
          in
          let path =
            Checkpoint.V2.write ?replica ~dir ~seq:!seq ~keep:config.persistence.snapshot_keep
              payload ~current:s.rs
          in
          incr seq;
          Log.debug (fun m -> m "checkpoint %s" path)
        end
    end
  in
  let resume =
    Option.map (fun (r : Checkpoint.V2.loaded) -> r.Checkpoint.V2.data.Checkpoint.V2.engine) resume
  in
  let anneal_report =
    Spr_anneal.Engine.run ?config:config.anneal ?resume ?start_temperature ~on_temperature
      ~on_checkpoint
      ~should_stop ~rng
      ~cost:(fun () -> session_cost s)
      ~propose:(fun rng -> Move_pipeline.propose s.pipeline rng)
      ~accept:(fun () ->
        Dynamics.note_accepted_cells s.dyn (Move_pipeline.last_cells s.pipeline);
        Move_pipeline.accept s.pipeline;
        if config.validation.validate then begin
          s.accepted_since_audit <- s.accepted_since_audit + 1;
          if s.accepted_since_audit >= config.validation.validate_every then begin
            s.accepted_since_audit <- 0;
            validate_now s
          end
        end)
      ~reject:(fun () -> Move_pipeline.reject s.pipeline)
      ~n:(Spr_netlist.Netlist.n_cells nl)
      ()
  in
  (anneal_report, !stop_reason)

(* Close out a layout for delivery: route whatever is still queued with
   unbounded retries, then refresh the timing picture from scratch. *)
let finalize ~(config : Config.t) rs sta =
  Router.route_all ~config:config.router ~passes:3 rs;
  Sta.full_update sta

(* [t_start] is the process CPU clock and [watch] the wall clock, both
   read when the replica's set-up began. *)
let run_session ?resume ?start_temperature ~ctx ~(config : Config.t) ~rng ~t_start ~watch s =
  let nl = P.netlist s.place in
  let best =
    ref
      (match resume with
      | Some (r : Checkpoint.V2.loaded) ->
        ( r.Checkpoint.V2.data.Checkpoint.V2.best_cost,
          Some r.Checkpoint.V2.data.Checkpoint.V2.best_layout )
      | None -> (infinity, None))
  in
  let anneal_report, stop_reason =
    Spr_obs.Obs.span ~name:"anneal" (fun () ->
        anneal_session ?resume ?start_temperature ~ctx ~config ~rng ~best s)
  in
  let status =
    match stop_reason with None -> Completed | Some reason -> Interrupted reason
  in
  (* For interrupted runs, deliver the best-so-far layout; the final
     checkpoint (already written) still holds the in-flight one, so a
     resume continues mid-schedule regardless. *)
  let place, rs, sta =
    match status with
    | Completed -> (s.place, s.rs, s.sta)
    | Interrupted reason -> (
      Log.info (fun m -> m "run interrupted (%s)" (stop_reason_to_string reason));
      let live = best_metric ~rs:s.rs ~sta:s.sta in
      match !best with
      | best_cost, Some text when best_cost < live -> (
        match Checkpoint.of_string nl text with
        | Ok best_rs -> (Rs.place best_rs, best_rs, Sta.create config.delay_model best_rs)
        | Error e ->
          Log.warn (fun m -> m "best-so-far layout failed to decode (%s); using current" e);
          (s.place, s.rs, s.sta))
      | _ -> (s.place, s.rs, s.sta))
  in
  Spr_obs.Obs.span ~name:"finalize" (fun () -> finalize ~config rs sta);
  if config.validation.validate && rs == s.rs then validate_now s;
  let profile = Move_pipeline.profile s.pipeline in
  let cpu_seconds = Sys.time () -. t_start in
  let critical_delay = Sta.critical_delay sta in
  let g = Rs.g_count rs and d = Rs.d_count rs in
  let best_cost = best_metric ~rs ~sta in
  let report =
    {
      Spr_obs.Report.r_label = run_label config;
      r_seed = config.seed;
      r_replicas = 1;
      r_status = status_to_string status;
      r_fully_routed = Rs.fully_routed rs;
      r_g_unrouted = g;
      r_d_unrouted = d;
      r_critical_delay_ns = critical_delay;
      r_best_cost = best_cost;
      r_initial_cost = anneal_report.Spr_anneal.Engine.initial_cost;
      r_final_cost = anneal_report.Spr_anneal.Engine.final_cost;
      r_moves = anneal_report.Spr_anneal.Engine.n_moves;
      r_temperatures = anneal_report.Spr_anneal.Engine.n_temperatures;
      r_exchange_rounds = 0;
      r_cpu_seconds = cpu_seconds;
      r_wall_seconds = Spr_util.Clock.elapsed watch;
      r_pipeline = Some (Profile.to_pipeline profile);
      r_route = Some (Spr_route.Route_stats.collect rs);
      r_dynamics = Dynamics.samples s.dyn;
      r_metrics = Profile.metrics_snapshot profile;
    }
  in
  (* The registry dump closes the replica's own event stream; the trace
     assembler appends the replica_end marker after it. *)
  if Spr_obs.Obs.recording () then
    Spr_obs.Obs.emit (Spr_obs.Trace.Metrics_dump report.Spr_obs.Report.r_metrics);
  {
    place;
    route = rs;
    sta;
    critical_delay;
    g;
    d;
    fully_routed = Rs.fully_routed rs;
    anneal_report;
    profile;
    cpu_seconds;
    status;
    best_cost;
    report;
    events = [];
  }

let run_fresh ?seed_place ?start_temperature ~ctx ~(config : Config.t) arch nl =
  let rng = Spr_util.Rng.stream ~seed:config.seed ~index:config.parallel.stream in
  (* A seeded run starts from the caller's placement (plain data, so
     fleet replicas never share a mutable layout) instead of the random
     one; the rng simply skips the shuffle draws. *)
  let initial_place =
    match seed_place with
    | None -> P.create arch nl ~rng
    | Some (slots, pinmaps) -> P.create_from arch nl ~slots ~pinmaps
  in
  match initial_place with
  | Error e -> Error (Invalid_design e)
  | Ok place ->
    let watch = Spr_util.Clock.start () in
    let t_start = Sys.time () in
    let rs = Rs.create place in
    (* Start-up transient: give every net a first chance at a (poor)
       route in the random placement. *)
    Spr_obs.Obs.span ~name:"route.initial" (fun () ->
        Router.route_all ~config:config.router ~passes:2 rs);
    let sta = Sta.create config.delay_model rs in
    let initial_delay = Float.max 1e-6 (Sta.critical_delay sta) in
    let weights =
      Spr_anneal.Weights.create ~g_per_net:config.weights.g_per_net
        ~d_per_net:config.weights.d_per_net ~t_emphasis:config.weights.t_emphasis
        ~initial_delay ()
    in
    let s =
      {
        place;
        rs;
        sta;
        weights;
        pipeline = new_pipeline ~config ~weights rs sta;
        dyn = Dynamics.create ~n_cells:(Spr_netlist.Netlist.n_cells nl);
        accepted_since_audit = 0;
      }
    in
    Ok (run_session ?start_temperature ~ctx ~config ~rng ~t_start ~watch s)

let run_resumed ~ctx ~(config : Config.t) ~(resume : Checkpoint.V2.loaded) nl =
  let watch = Spr_util.Clock.start () in
  let t_start = Sys.time () in
  let data = resume.Checkpoint.V2.data in
  let rs = resume.Checkpoint.V2.route in
  let place = Rs.place rs in
  let n_cells = Spr_netlist.Netlist.n_cells nl in
  if Array.length data.Checkpoint.V2.dyn_flags <> n_cells then
    Error
      (Resume_failed
         (Printf.sprintf "%s: snapshot is for a %d-cell design, netlist has %d"
            resume.Checkpoint.V2.path
            (Array.length data.Checkpoint.V2.dyn_flags)
            n_cells))
  else begin
    (* The snapshot was written from a canonical ([full_update]d) STA, so
       rebuilding from scratch reproduces the exact timing state the
       interrupted run carried. *)
    let sta = Sta.create config.delay_model rs in
    let rng = Spr_util.Rng.of_state data.Checkpoint.V2.rng_state in
    let weights = Spr_anneal.Weights.restore data.Checkpoint.V2.weights in
    let s =
      {
        place;
        rs;
        sta;
        weights;
        pipeline = new_pipeline ~config ~weights rs sta;
        dyn =
          Dynamics.restore ~n_cells ~flags:data.Checkpoint.V2.dyn_flags
            ~samples:data.Checkpoint.V2.dyn_samples;
        accepted_since_audit = data.Checkpoint.V2.accepted_since_audit;
      }
    in
    Ok (run_session ~resume ~ctx ~config ~rng ~t_start ~watch s)
  end

(* --- the fleet record and its trace --- *)

type fleet = {
  p_best_replica : int;
  p_results : result array;
  p_profile : Profile.t;
  p_rounds : Scheduler.round_record list;
  p_wall_seconds : float;
  p_report : Spr_obs.Report.t;
}

let best_result p = p.p_results.(p.p_best_replica)

let replica_end_event ~replica (r : result) =
  {
    Spr_obs.Trace.ev_replica = replica;
    ev =
      Spr_obs.Trace.Replica_end
        {
          status = status_to_string r.status;
          g = r.g;
          d = r.d;
          delay_ns = r.critical_delay;
          best_cost = r.best_cost;
        };
  }

(* [run_start], each replica's stream closed by its [replica_end], one
   [exchange] row per recorded round, then [run_end]. *)
let trace_events ~(config : Config.t) nl (p : fleet) =
  let run_event ev = { Spr_obs.Trace.ev_replica = -1; ev } in
  let start =
    run_event
      (Spr_obs.Trace.Run_start
         {
           label = run_label config;
           seed = config.seed;
           replicas = Array.length p.p_results;
           n_cells = Spr_netlist.Netlist.n_cells nl;
           n_nets = Spr_netlist.Netlist.n_nets nl;
         })
  in
  let streams =
    Array.to_list
      (Array.mapi (fun k r -> r.events @ [ replica_end_event ~replica:k r ]) p.p_results)
  in
  let round_row (r : Scheduler.round_record) =
    run_event
      (Spr_obs.Trace.Exchange
         {
           round = r.Scheduler.round;
           from_replica = r.Scheduler.leader;
           metric = r.Scheduler.metric;
         })
  in
  let best = best_result p in
  let stop =
    run_event
      (Spr_obs.Trace.Run_end
         {
           status = status_to_string best.status;
           g = best.g;
           d = best.d;
           delay_ns = best.critical_delay;
           best_cost = best.best_cost;
           wall_seconds = p.p_wall_seconds;
         })
  in
  (start :: List.concat streams) @ List.map round_row p.p_rounds @ [ stop ]

let write_report_file path report =
  Spr_util.Persist.atomic_write path
    (Spr_obs.Json.to_string ~indent:true (Spr_obs.Report.to_json report) ^ "\n")

let recording_wanted (config : Config.t) =
  config.Config.obs.Config.record
  || config.Config.obs.Config.trace_path <> None
  || config.Config.obs.Config.on_event <> None

(* The recording sink for one replica: a live [on_event] hook gets a
   streaming sink (buffered copy still feeds trace assembly); plain
   recording buffers in memory; otherwise the null sink keeps every
   instrumentation point a strict no-op. The hook runs on the emitting
   domain — fleet replicas share it, so it must do its own locking. *)
let replica_sink (config : Config.t) =
  match config.Config.obs.Config.on_event with
  | Some f when recording_wanted config -> Spr_obs.Sink.stream f
  | _ -> if recording_wanted config then Spr_obs.Sink.memory () else Spr_obs.Sink.null

let run ?(config = Config.default) ?(resume = false) ?seed_place ?start_temperature arch nl =
  match Config.validated config with
  | Error msg -> Error (Invalid_config msg)
  | Ok { persistence = { run_dir = None; _ }; _ } when resume ->
    Error (Invalid_config "resume needs a run directory")
  | Ok config -> (
    let restore_from = if resume then config.persistence.run_dir else None in
    match Spr_netlist.Levelize.run nl with
    | Error e -> Error (Invalid_design e)
    | Ok _ ->
      let replicas = config.parallel.replicas in
      let wall = Spr_util.Clock.start () in
      (* [Sys.time] is process-wide, so each replica's own delta already
         counts every domain; the fleet takes one delta of its own. *)
      let cpu0 = Sys.time () in
      let stop = Atomic.make false in
      let sched =
        Scheduler.create ~replicas config.parallel.exchange
          ~history:
            (match restore_from with Some dir -> Checkpoint.Round.load_all ~dir | None -> [])
          ~persist:
            (match config.persistence.run_dir with
            | Some dir -> fun r -> ignore (Checkpoint.Round.write ~dir r)
            | None -> fun _ -> ())
          ~frozen:(fun () -> Atomic.get stop)
          ()
      in
      let sinks = Array.init replicas (fun _ -> replica_sink config) in
      let worker k =
        let ctx =
          {
            rep_index = k;
            rep_tag = (if replicas > 1 then Some k else None);
            rep_sched = sched;
            rep_stop = stop;
          }
        in
        (* Replica [k] draws stream [stream + k]: the winner of a fleet
           reproduces standalone as a one-replica run on its stream. *)
        let config = Config.with_stream (config.parallel.stream + k) config in
        let body () =
          try
            match restore_from with
            | Some dir -> (
              match Checkpoint.V2.load_latest ?replica:ctx.rep_tag nl ~dir with
              | Ok resume -> run_resumed ~ctx ~config ~resume nl
              | Error e ->
                (* No loadable snapshot for this replica: restart it from
                   scratch. Determinism makes the restart replay the lost
                   trajectory exactly, consuming any recorded rounds along
                   the way. *)
                Log.info (fun m -> m "replica %d: %s; starting fresh" k e);
                run_fresh ?seed_place ?start_temperature ~ctx ~config arch nl)
            | None -> run_fresh ?seed_place ?start_temperature ~ctx ~config arch nl
          with Audit_failure findings -> Error (Audit_failed findings)
        in
        Fun.protect
          ~finally:(fun () -> Scheduler.finished sched ~replica:k)
          (fun () -> Spr_obs.Obs.with_recording ~sink:sinks.(k) ~replica:k body)
      in
      let outcomes = Portfolio.run_replicas ~replicas worker in
      (* An exception escaping a replica is a bug in this layer, not a
         run outcome — re-raise the first. *)
      let settled = Array.map (function Ok o -> o | Error e -> raise e) outcomes in
      match Array.find_map (function Error e -> Some e | Ok _ -> None) settled with
      | Some e -> Error e
      | None ->
        let results =
          Array.mapi
            (fun k o ->
              match o with
              | Ok (r : result) -> { r with events = Spr_obs.Sink.events sinks.(k) }
              | Error _ -> assert false)
            settled
        in
        let best = ref 0 in
        Array.iteri
          (fun i (r : result) -> if r.best_cost < results.(!best).best_cost then best := i)
          results;
        let merged = Profile.create () in
        Array.iter (fun (r : result) -> Profile.absorb merged r.profile) results;
        let rounds = Scheduler.rounds sched in
        let wall_seconds = Spr_util.Clock.elapsed wall in
        (* The fleet report: the winner's layout-facing numbers, the
           merged pipeline/metrics, fleet-wide clocks. "Rounds" counts
           the recorded rounds. *)
        let p_report =
          {
            results.(!best).report with
            Spr_obs.Report.r_replicas = replicas;
            r_exchange_rounds = List.length rounds;
            r_cpu_seconds = Sys.time () -. cpu0;
            r_wall_seconds = wall_seconds;
            r_pipeline = Some (Profile.to_pipeline merged);
            r_metrics = Profile.metrics_snapshot merged;
          }
        in
        let p =
          {
            p_best_replica = !best;
            p_results = results;
            p_profile = merged;
            p_rounds = rounds;
            p_wall_seconds = wall_seconds;
            p_report;
          }
        in
        (match config.obs.trace_path with
        | Some path -> Spr_obs.Trace.to_file path (trace_events ~config nl p)
        | None -> ());
        (match config.obs.report_path with
        | Some path -> write_report_file path p_report
        | None -> ());
        Ok p)

let run_exn ?config ?resume ?seed_place ?start_temperature arch nl =
  match run ?config ?resume ?seed_place ?start_temperature arch nl with
  | Ok r -> r
  | Error e -> raise (Tool_error e)

let audit_result (r : result) = Spr_check.Audit.run_all ~sta:r.sta r.route
