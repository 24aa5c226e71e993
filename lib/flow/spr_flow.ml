module P = Spr_layout.Placement
module Rs = Spr_route.Route_state
module Sta = Spr_timing.Sta
module Tool = Spr_core.Tool
module C = Spr_core.Tool.Config
module Checkpoint = Spr_core.Checkpoint
module Trace = Spr_obs.Trace
module Ap_place = Ap_place

type stage_record = {
  sg_name : string;
  sg_seconds : float;
  sg_detail : string;
}

type result = {
  f_place : P.t;
  f_route : Rs.t;
  f_sta : Sta.t;
  f_critical_delay : float;
  f_g : int;
  f_d : int;
  f_fully_routed : bool;
  f_stages : stage_record list;
  f_seed_temperature : float option;
  f_fleet : Tool.fleet option;
  f_status : Tool.status;
}

let preset_names = C.flow_preset_names

let stages_of_preset = C.flow_stages_of_preset

(* Acceptance fraction the seeded anneal opens at. The warmup-derived
   T0 targets [initial_acceptance] (0.9 by default) because a random
   placement must first melt; a wirelength-optimized seed must NOT
   melt — it starts deep in the cooling schedule instead, accepting
   only this fraction of uphill moves, which is what cuts the
   moves-to-convergence. *)
let chi_seeded = 0.05

(* --- flow-level state threaded between stages --- *)

type st = {
  mutable place : P.t option;
  mutable rs : Rs.t option;
  mutable sta : Sta.t option;
  mutable seed_temp : float option;
  mutable fleet : Tool.fleet option;
  mutable stages : stage_record list;  (* reversed *)
  mutable flow_events : Trace.event list;
  started : Spr_util.Clock.stopwatch;  (* the flow's clock *)
  time_budget : float option;
  mutable stopped : Tool.stop_reason option;
}

let fresh_st (config : C.t) =
  {
    place = None;
    rs = None;
    sta = None;
    seed_temp = None;
    fleet = None;
    stages = [];
    flow_events = [];
    started = Spr_util.Clock.start ();
    time_budget = config.C.budget.C.time_budget;
    stopped = None;
  }

(* The run's one stop condition: the interrupt flag, or the time budget
   spent on the flow's clock. The flow checks it before each stage, and
   [ap], [greedy] and [route] poll it through their own hooks; the first
   reason seen sticks, so the flow knows a stage was cut short. *)
let should_stop st () =
  (if st.stopped = None then
     st.stopped <-
       (if Tool.interrupt_requested () then Some Tool.Interrupt
        else
          match st.time_budget with
          | Some b when Spr_util.Clock.elapsed st.started >= b -> Some Tool.Time_budget
          | _ -> None));
  st.stopped <> None

let push_stage st ~name ~seconds ~detail =
  st.stages <- { sg_name = name; sg_seconds = seconds; sg_detail = detail } :: st.stages

(* Record a non-sa stage: wrap it in a [flow.<name>] span captured into
   a private memory sink (only when a trace will be assembled), and
   time it for the stage table. *)
let record_stage st ~want_events ~name f =
  let sink = if want_events then Spr_obs.Sink.memory () else Spr_obs.Sink.null in
  let watch = Spr_util.Clock.start () in
  let out =
    Spr_obs.Obs.with_recording ~sink ~replica:0 (fun () ->
        Spr_obs.Obs.span ~name:("flow." ^ name) f)
  in
  st.flow_events <- st.flow_events @ Spr_obs.Sink.events sink;
  (out, Spr_util.Clock.elapsed watch)

(* --- stage-boundary persistence ---

   Every completed stage that produces a layout ([ap], [greedy],
   [route]) leaves a v1 layout checkpoint [stage-NN-<stage>.ckpt] in the
   run directory, the last stage of a preset included; these files are
   the flow's only progress record. A stage the stop condition cut
   short leaves none. [sta] is recomputed on resume, and [sa] resumes
   from its own V2 snapshots through [Tool.run ~resume]. *)

let stage_ckpt dir idx name = Filename.concat dir (Printf.sprintf "stage-%02d-%s.ckpt" idx name)

let leaves_checkpoint = function "ap" | "greedy" | "route" -> true | _ -> false

(* The layout of a completed stage: an unrouted state when the stage
   only placed. *)
let persist_stage ~(config : C.t) ~idx ~name st =
  match config.C.persistence.C.run_dir with
  | None -> ()
  | Some dir ->
    let rs = match st.rs with Some rs -> rs | None -> Rs.create (Option.get st.place) in
    Spr_util.Persist.ensure_dir dir;
    Checkpoint.save rs (stage_ckpt dir idx name)

(* --- seed temperature probe ---

   The reduced starting temperature for a seeded anneal comes from the
   seed's own cost distribution: route the seed, then propose (and
   always reject) a batch of moves through a throwaway pipeline,
   measuring the uphill deltas under the same composite cost the
   anneal will use. T0 = avg_uphill / -ln(chi_seeded). Runs with a
   dedicated rng, so it never perturbs the real run, and depends only on
   the seed placement and the config, so a resume re-probes the T0 of
   the uninterrupted run. *)

let probe_temperature ~(config : C.t) arch nl ~slots ~pinmaps =
  match P.create_from arch nl ~slots ~pinmaps with
  | Error _ -> None
  | Ok place ->
    let rs = Rs.create place in
    Spr_route.Router.route_all ~config:config.C.router ~passes:2 rs;
    let sta = Sta.create config.C.delay_model rs in
    let initial_delay = Float.max 1e-6 (Sta.critical_delay sta) in
    let weights =
      Spr_anneal.Weights.create ~g_per_net:config.C.weights.C.g_per_net
        ~d_per_net:config.C.weights.C.d_per_net ~t_emphasis:config.C.weights.C.t_emphasis
        ~initial_delay ()
    in
    let pipeline =
      Spr_core.Move_pipeline.create ~router:config.C.router
        ~pinmap_move_prob:config.C.moves.C.pinmap_move_prob
        ~enable_pinmap_moves:config.C.moves.C.enable_pinmap_moves
        ~max_swap_tries:config.C.moves.C.max_swap_tries ~place ~rs ~sta ~weights
        ~journal:(Spr_util.Journal.create ()) ()
    in
    let cost () =
      Spr_anneal.Weights.cost weights ~g:(Rs.g_count rs) ~d:(Rs.d_count rs)
        ~delay:(Sta.critical_delay sta)
    in
    let rng = Spr_util.Rng.create (config.C.seed lxor 0x5eed70) in
    let n = Spr_netlist.Netlist.n_cells nl in
    let moves = max 100 (min 1000 (2 * n)) in
    let uphill = ref 0.0 in
    let count = ref 0 in
    for _ = 1 to moves do
      let before = cost () in
      if Spr_core.Move_pipeline.propose pipeline rng then begin
        let after = cost () in
        if after > before then begin
          uphill := !uphill +. (after -. before);
          incr count
        end;
        Spr_core.Move_pipeline.reject pipeline
      end
    done;
    let avg =
      if !count > 0 then !uphill /. float_of_int !count
      else Float.max 1e-9 (cost () *. 0.05)
    in
    Some (-.avg /. log chi_seeded)

let seed_data place nl =
  let n = Spr_netlist.Netlist.n_cells nl in
  ( Array.init n (fun c -> P.slot_of place c),
    Array.init n (fun c -> P.pinmap_index place c) )

(* --- the stages --- *)

let run_ap st ~(config : C.t) ~want_events arch nl =
  let out, seconds =
    record_stage st ~want_events ~name:"ap" (fun () ->
        Ap_place.run ~deadline:(should_stop st) ~seed:config.C.seed arch nl)
  in
  match out with
  | Error e -> Error (Tool.Invalid_design e)
  | Ok r -> (
    match P.create_from arch nl ~slots:r.Ap_place.ap_slots ~pinmaps:r.Ap_place.ap_pinmaps with
    | Error e -> Error (Tool.Invalid_design e)
    | Ok place ->
      st.place <- Some place;
      st.rs <- None;
      st.sta <- None;
      push_stage st ~name:"ap" ~seconds
        ~detail:(Printf.sprintf "hpwl=%.1f" r.Ap_place.ap_hpwl);
      Ok ())

(* Greedy placement: the TimberWolf-style baseline placer when starting
   from nothing (exactly the old sequential flow's first leg), a
   zero-temperature descent when a previous stage already placed. *)
let run_greedy st ~(config : C.t) ~want_events arch nl =
  let should_stop = should_stop st in
  match st.place with
  | None -> (
    let out, seconds =
      record_stage st ~want_events ~name:"greedy" (fun () ->
          Spr_seq.Seq_place.run ~seed:config.C.seed ?anneal:config.C.anneal ~should_stop arch
            nl)
    in
    match out with
    | Error e -> Error (Tool.Invalid_design e)
    | Ok (place, report) ->
      st.place <- Some place;
      st.rs <- None;
      st.sta <- None;
      push_stage st ~name:"greedy" ~seconds
        ~detail:
          (Printf.sprintf "anneal %d moves, hpwl=%.1f"
             report.Spr_anneal.Engine.n_moves
             (Spr_seq.Seq_place.wirelength place));
      Ok ())
  | Some place ->
    let (), seconds =
      record_stage st ~want_events ~name:"greedy" (fun () ->
          let rng = Spr_util.Rng.create (config.C.seed + 0x6EED) in
          let n = Spr_netlist.Netlist.n_cells nl in
          let moves = max 1000 (10 * n) in
          let kept = Spr_seq.Seq_place.refine ~should_stop ~rng ~moves place in
          ignore (kept : int))
    in
    st.rs <- None;
    st.sta <- None;
    push_stage st ~name:"greedy" ~seconds
      ~detail:(Printf.sprintf "descent hpwl=%.1f" (Spr_seq.Seq_place.wirelength place));
    Ok ()

let run_route st ~(config : C.t) ~want_events =
  let should_stop = should_stop st in
  let place = Option.get st.place in
  let rs, seconds =
    record_stage st ~want_events ~name:"route" (fun () ->
        let rs = Rs.create place in
        let rng = Spr_util.Rng.create (config.C.seed + 0x5E01) in
        Spr_seq.Seq_route.run ~router:config.C.router ~should_stop ~rng rs;
        rs)
  in
  st.rs <- Some rs;
  st.sta <- None;
  push_stage st ~name:"route" ~seconds
    ~detail:(Printf.sprintf "G=%d D=%d" (Rs.g_count rs) (Rs.d_count rs));
  Ok ()

let run_sta st ~(config : C.t) ~want_events =
  let rs = Option.get st.rs in
  let sta, seconds =
    record_stage st ~want_events ~name:"sta" (fun () -> Sta.create config.C.delay_model rs)
  in
  st.sta <- Some sta;
  push_stage st ~name:"sta" ~seconds
    ~detail:(Printf.sprintf "critical=%.2fns" (Sta.critical_delay sta));
  Ok ()

(* The simultaneous anneal, seeded when a previous stage placed. Trace
   output is deferred: the sa sub-run records events in memory (when a
   trace was requested) and the flow assembles the final file, so the
   stage spans of the whole flow land in one [spr-trace-1] stream. *)
let run_sa st ~(config : C.t) ~want_events ~resume ~multi_stage arch nl =
  let seed_place = Option.map (fun place -> seed_data place nl) st.place in
  (* Probed on every run, resumes included: a replica that lost its V2
     snapshots restarts the seeded anneal and must open at the
     uninterrupted run's T0. *)
  Option.iter
    (fun (slots, pinmaps) ->
      let t0, _ =
        record_stage st ~want_events ~name:"probe" (fun () ->
            probe_temperature ~config arch nl ~slots ~pinmaps)
      in
      st.seed_temp <- t0)
    seed_place;
  let start_temperature = st.seed_temp in
  (* A seeded anneal starts past the melt, so the full cooling-count
     cap (sized for melt -> freeze) would let it wander for the whole
     schedule; the tail it actually runs needs only a fraction. *)
  let config =
    match start_temperature with
    | None -> config
    | Some _ ->
      let base =
        match config.C.anneal with
        | Some a -> a
        | None -> Spr_anneal.Engine.default_config ~n:(Spr_netlist.Netlist.n_cells nl)
      in
      C.with_anneal
        {
          base with
          (* Cool faster: the cold run's tail idles at the Huang alpha
             ceiling for dozens of levels; the seeded run must reach
             freeze-out quickly. Spend fewer moves per level — past the
             melt each level is mostly refinement, and the adaptive
             stop criterion still decides the schedule length. *)
          Spr_anneal.Engine.max_alpha = 0.88;
          moves_per_temp = max 100 (base.Spr_anneal.Engine.moves_per_temp / 4);
          warmup_moves = max 50 (base.Spr_anneal.Engine.warmup_moves / 4);
          (* Smaller batches make the per-level acceptance estimate
             noisy; more patience before stopping compensates. *)
          stop_patience = 2 * base.Spr_anneal.Engine.stop_patience;
          quench_temperatures = 3 * base.Spr_anneal.Engine.quench_temperatures;
        }
        config
  in
  (* The anneal spends what is left of the flow's time budget. A spent
     budget stays positive, so the config still validates and the
     anneal stops at its first move. *)
  let config =
    match st.time_budget with
    | None -> config
    | Some b ->
      C.with_time_budget (Float.max Float.min_float (b -. Spr_util.Clock.elapsed st.started)) config
  in
  let sa_config =
    if multi_stage then
      (* Strip the trace path: the flow writes the assembled trace
         itself; keep recording on so the sa events come back. *)
      {
        config with
        C.obs =
          { config.C.obs with C.trace_path = None; record = config.C.obs.C.record || want_events };
      }
    else config
  in
  let watch = Spr_util.Clock.start () in
  match Tool.run ~config:sa_config ~resume ?seed_place ?start_temperature arch nl with
  | Error e -> Error e
  | Ok p ->
    let r = Tool.best_result p in
    st.fleet <- Some p;
    st.place <- Some r.Tool.place;
    st.rs <- Some r.Tool.route;
    st.sta <- Some r.Tool.sta;
    let detail =
      Printf.sprintf "%d moves%s%s" r.Tool.anneal_report.Spr_anneal.Engine.n_moves
        (match Array.length p.Tool.p_results with
        | 1 -> ""
        | k -> Printf.sprintf " (best of %d)" k)
        (match start_temperature with
        | Some t -> Printf.sprintf ", seeded T0=%.4g" t
        | None -> "")
    in
    push_stage st ~name:"sa" ~seconds:(Spr_util.Clock.elapsed watch) ~detail;
    Ok ()

(* --- resume --- *)

(* Restore the latest stage checkpoint that loads, trying earlier ones
   when it does not, and return how many stages it skips; with none, the
   flow starts fresh (mirroring [Tool.run]'s per-replica fallback).
   Determinism replays whatever was lost. *)
let restore ~dir ~stages st nl =
  let rec latest = function
    | [] -> 0
    | (idx, name) :: earlier -> (
      match Checkpoint.load nl (stage_ckpt dir idx name) with
      | Error _ -> latest earlier
      | Ok rs ->
        st.place <- Some (Rs.place rs);
        st.rs <- Some rs;
        List.iteri
          (fun i s ->
            if i <= idx then push_stage st ~name:s ~seconds:0.0 ~detail:"restored from checkpoint")
          stages;
        idx + 1)
  in
  List.mapi (fun idx name -> (idx, name)) stages
  |> List.filter (fun (_, name) -> leaves_checkpoint name)
  |> List.rev |> latest

(* --- trace assembly --- *)

let fleet ev = { Trace.ev_replica = -1; ev }

let write_flow_trace ~(orig : C.t) ~path ~status ~rs ~sta st nl wall_seconds =
  match st.fleet with
  | Some p ->
    (* The stage spans lead replica 0's stream. *)
    let results = Array.copy p.Tool.p_results in
    results.(0) <- { (results.(0)) with Tool.events = st.flow_events @ results.(0).Tool.events };
    Trace.to_file path (Tool.trace_events ~config:orig nl { p with Tool.p_results = results })
  | None ->
    (* No sa stage ran: frame the stage spans by hand. *)
    let g = Rs.g_count rs and d = Rs.d_count rs in
    let delay_ns = Sta.critical_delay sta in
    let best_cost = Tool.best_metric ~rs ~sta in
    let start =
      fleet
        (Trace.Run_start
           {
             label = Option.value orig.C.obs.C.label ~default:"run";
             seed = orig.C.seed;
             replicas = 1;
             n_cells = Spr_netlist.Netlist.n_cells nl;
             n_nets = Spr_netlist.Netlist.n_nets nl;
           })
    in
    let status = Tool.status_to_string status in
    let stop = fleet (Trace.Run_end { status; g; d; delay_ns; best_cost; wall_seconds }) in
    Trace.to_file path ((start :: st.flow_events) @ [ stop ])

(* --- the engine --- *)

let run ?(config = Tool.default_config) ?(resume = false) arch nl =
  match C.validated config with
  | Error msg -> Error (Tool.Invalid_config msg)
  | Ok { C.persistence = { C.run_dir = None; _ }; _ } when resume ->
    Error (Tool.Invalid_config "resume needs a run directory")
  | Ok config -> (
    let stages =
      match stages_of_preset config.C.flow with
      | Ok s -> s
      | Error _ -> assert false (* validated above *)
    in
    (* A flow that opens with sa leaves the cycle check to [Tool.run],
       which makes it first; levelizing a large design here as well
       would cost set-up time and peak heap. *)
    match
      match stages with
      | "sa" :: _ -> Ok ()
      | _ -> Result.map ignore (Spr_netlist.Levelize.run nl)
    with
    | Error e -> Error (Tool.Invalid_design e)
    | Ok () -> (
      let multi_stage = stages <> [ "sa" ] in
      let want_events = multi_stage && config.C.obs.C.trace_path <> None in
      let st = fresh_st config in
      let skip =
        match config.C.persistence.C.run_dir with
        | Some dir when resume && multi_stage -> restore ~dir ~stages st nl
        | _ -> 0
      in
      (* The stop condition is checked before each stage that has a
         layout to fall back on; a flow's first stage polls it itself
         and stops at once. A stage it stopped leaves no checkpoint and
         ends the flow, so a resume re-runs that stage from its start. *)
      let rec execute idx = function
        | [] -> Ok ()
        | _ :: rest when idx < skip -> execute (idx + 1) rest
        | _ when st.place <> None && should_stop st () -> Ok ()
        | stage :: rest -> (
          let outcome =
            match stage with
            | "ap" -> run_ap st ~config ~want_events arch nl
            | "greedy" -> run_greedy st ~config ~want_events arch nl
            | "route" -> run_route st ~config ~want_events
            | "sta" -> run_sta st ~config ~want_events
            | "sa" ->
              (* A resumed sa continues from its V2 snapshots; a fresh
                 sa with no snapshots starts deterministically from the
                 seed. *)
              run_sa st ~config ~want_events ~resume ~multi_stage arch nl
            | other -> Error (Tool.Invalid_config (Printf.sprintf "unknown flow stage %s" other))
          in
          match outcome with
          | Error e -> Error e
          | Ok () when st.stopped <> None -> Ok ()
          | Ok () ->
            if leaves_checkpoint stage then persist_stage ~config ~idx ~name:stage st;
            execute (idx + 1) rest)
      in
      match execute 0 stages with
      | Error e -> Error e
      | Ok () ->
        let place = Option.get st.place in
        let rs = match st.rs with Some rs -> rs | None -> Rs.create place in
        let sta = match st.sta with Some s -> s | None -> Sta.create config.C.delay_model rs in
        let status =
          match st.fleet, st.stopped with
          | Some p, _ -> (Tool.best_result p).Tool.status
          | None, Some reason -> Tool.Interrupted reason
          | None, None -> Tool.Completed
        in
        let wall_seconds = Spr_util.Clock.elapsed st.started in
        (if multi_stage then
           match config.C.obs.C.trace_path with
           | Some path -> write_flow_trace ~orig:config ~path ~status ~rs ~sta st nl wall_seconds
           | None -> ());
        Ok
          {
            f_place = place;
            f_route = rs;
            f_sta = sta;
            f_critical_delay = Sta.critical_delay sta;
            f_g = Rs.g_count rs;
            f_d = Rs.d_count rs;
            f_fully_routed = Rs.fully_routed rs;
            f_stages = List.rev st.stages;
            f_seed_temperature = st.seed_temp;
            f_fleet = st.fleet;
            f_status = status;
          }))

let stage_seconds r = List.fold_left (fun acc s -> acc +. s.sg_seconds) 0.0 r.f_stages

let sa_moves r =
  match r.f_fleet with
  | Some p -> (Tool.best_result p).Tool.anneal_report.Spr_anneal.Engine.n_moves
  | None -> 0

let run_exn ?config ?resume arch nl =
  match run ?config ?resume arch nl with
  | Ok r -> r
  | Error e -> raise (Tool.Tool_error e)
