(* The composable flow engine: preset validation, analytical-seed
   determinism, bit-compat of the [sa] preset with a plain tool run,
   the one stop condition every stage obeys, and stage-boundary
   crash + resume. *)

module Flow = Spr_flow
module Ap = Spr_flow.Ap_place
module Tool = Spr_core.Tool
module Config = Spr_core.Tool.Config
module Engine = Spr_anneal.Engine
module Rs = Spr_route.Route_state
module P = Spr_layout.Placement
module Arch = Spr_arch.Arch
module Nl = Spr_netlist.Netlist
module Gen = Spr_netlist.Generator
module Spec = Spr_serve.Spec

let rec rmrf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rmrf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let contains ~needle hay =
  let nh = String.length needle and lh = String.length hay in
  let rec go i = i + nh <= lh && (String.sub hay i nh = needle || go (i + 1)) in
  go 0

let preset ?(n_cells = 48) ?(tracks = 18) ~seed () =
  let nl = Gen.generate (Gen.default ~n_cells) ~seed in
  let arch = Arch.size_for ~tracks nl in
  let n = Nl.n_cells nl in
  let config =
    Config.(
      default |> with_seed seed
      |> with_anneal
           {
             (Engine.default_config ~n) with
             Engine.moves_per_temp = max 150 (2 * n);
             warmup_moves = 150;
             max_temperatures = 10;
           })
  in
  (arch, nl, config)

(* --- config / preset validation --- *)

let test_presets_resolve () =
  List.iter
    (fun name ->
      match Flow.stages_of_preset name with
      | Ok stages ->
        Alcotest.(check bool)
          (Printf.sprintf "preset %s non-empty" name)
          true (stages <> [])
      | Error e -> Alcotest.failf "preset %s rejected: %s" name e)
    Flow.preset_names

(* Only the four presets run: an unknown name and a '+'-joined chain of
   stages are refused alike. *)
let test_bad_preset_rejected () =
  let arch, nl, base = preset ~seed:3 () in
  List.iter
    (fun flow ->
      let config = Config.with_flow_preset flow base in
      match Flow.run ~config arch nl with
      | Error (Tool.Invalid_config msg) ->
        (* The error must teach: every valid preset is listed. *)
        List.iter
          (fun name ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: error lists %s" flow name)
              true (contains ~needle:name msg))
          Flow.preset_names
      | Error e -> Alcotest.failf "%s: wrong error class: %s" flow (Tool.error_to_string e)
      | Ok _ -> Alcotest.failf "flow %s accepted" flow)
    [ "warp9"; "greedy+sa" ]

(* A move budget counts the sa anneal's moves, so a flow with no sa
   stage refuses it, naming the flow, instead of ignoring it. *)
let test_move_budget_needs_sa () =
  let _, _, config = preset ~seed:3 () in
  List.iter
    (fun flow ->
      let config = Config.(config |> with_flow_preset flow |> with_max_moves 100) in
      match Config.validated config, Flow.stages_of_preset flow with
      | Ok _, Ok stages when List.mem "sa" stages -> ()
      | Error msg, Ok stages when not (List.mem "sa" stages) ->
        Alcotest.(check bool) (Printf.sprintf "%s: error names the flow: %s" flow msg) true
          (contains ~needle:("flow " ^ flow) msg && contains ~needle:"max_moves" msg)
      | Ok _, _ -> Alcotest.failf "%s: a move budget was accepted" flow
      | Error msg, _ -> Alcotest.failf "%s: a move budget was refused: %s" flow msg)
    Flow.preset_names

(* --- analytical placement --- *)

let test_ap_deterministic () =
  let nl = Gen.generate (Gen.default ~n_cells:60) ~seed:11 in
  let arch = Arch.size_for ~tracks:20 nl in
  let run () =
    match Ap.run ~seed:11 arch nl with
    | Ok r -> r
    | Error e -> Alcotest.failf "ap failed: %s" e
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical slots" true (a.Ap.ap_slots = b.Ap.ap_slots);
  Alcotest.(check bool) "identical pinmaps" true (a.Ap.ap_pinmaps = b.Ap.ap_pinmaps);
  Alcotest.(check (float 1e-9)) "identical hpwl" a.Ap.ap_hpwl b.Ap.ap_hpwl;
  (* The legalized result must be a loadable placement. *)
  match P.create_from arch nl ~slots:a.Ap.ap_slots ~pinmaps:a.Ap.ap_pinmaps with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ap seed not legal: %s" e

(* --- bit-compat of the single-stage [sa] preset --- *)

let test_sa_preset_matches_tool () =
  let arch, nl, config = preset ~seed:7 () in
  let direct = Tool.best_result (Tool.run_exn ~config arch nl) in
  let via_flow = Flow.run_exn ~config:(Config.with_flow_preset "sa" config) arch nl in
  Alcotest.(check string) "identical layout" (Rs.snapshot direct.Tool.route)
    (Rs.snapshot via_flow.Flow.f_route);
  Alcotest.(check int) "same g" direct.Tool.g via_flow.Flow.f_g;
  Alcotest.(check int) "same d" direct.Tool.d via_flow.Flow.f_d;
  Alcotest.(check (float 1e-9)) "same delay" direct.Tool.critical_delay
    via_flow.Flow.f_critical_delay;
  Alcotest.(check int) "same move count"
    direct.Tool.anneal_report.Engine.n_moves (Flow.sa_moves via_flow)

(* --- the sequential preset is deterministic and stage-ordered --- *)

let test_seq_preset_deterministic () =
  let arch, nl, config = preset ~seed:9 () in
  let config = Config.with_flow_preset "seq" config in
  let a = Flow.run_exn ~config arch nl in
  let b = Flow.run_exn ~config arch nl in
  Alcotest.(check string) "identical layout" (Rs.snapshot a.Flow.f_route)
    (Rs.snapshot b.Flow.f_route);
  Alcotest.(check bool) "no sa stage ran" true (a.Flow.f_fleet = None);
  let names = List.map (fun s -> s.Flow.sg_name) a.Flow.f_stages in
  Alcotest.(check (list string)) "stage order" [ "greedy"; "route"; "sta" ] names

(* --- stage-boundary kill + resume --- *)

let test_ap_sa_kill_resume () =
  let arch, nl, base = preset ~seed:23 () in
  let base = Config.with_flow_preset "ap+sa" base in
  let ref_dir = "flow-crash-ref" and dir = "flow-crash" in
  rmrf ref_dir;
  rmrf dir;
  Fun.protect
    ~finally:(fun () ->
      rmrf ref_dir;
      rmrf dir)
    (fun () ->
      let reference = Flow.run_exn ~config:(Config.with_run_dir ref_dir base) arch nl in
      (* Crash inside the sa stage: periodic snapshots survive, the
         final checkpoint does not — as after a real kill -9. The ap
         stage's checkpoint was written at the stage boundary before sa
         began. *)
      let _crashed =
        Flow.run_exn
          ~config:
            Config.(
              base |> with_run_dir dir |> with_final_checkpoint false
              |> with_stop_after_accepted 40)
          arch nl
      in
      let resumed =
        Flow.run_exn ~config:(Config.with_run_dir dir base) ~resume:true arch nl
      in
      Alcotest.(check bool) "resume skipped the ap stage" true
        (List.exists
           (fun s -> s.Flow.sg_name = "ap" && s.Flow.sg_detail = "restored from checkpoint")
           resumed.Flow.f_stages);
      Alcotest.(check string) "resumed run lands exactly on the reference"
        (Rs.snapshot reference.Flow.f_route)
        (Rs.snapshot resumed.Flow.f_route);
      Alcotest.(check int) "same g" reference.Flow.f_g resumed.Flow.f_g;
      Alcotest.(check int) "same d" reference.Flow.f_d resumed.Flow.f_d;
      Alcotest.(check (float 1e-9)) "same delay" reference.Flow.f_critical_delay
        resumed.Flow.f_critical_delay;
      Alcotest.(check bool) "same seed temperature" true
        (reference.Flow.f_seed_temperature = resumed.Flow.f_seed_temperature))

let remove_files dir ~prefix =
  Array.iter
    (fun f -> if String.starts_with ~prefix f then Sys.remove (Filename.concat dir f))
    (Sys.readdir dir)

let restored_stages (r : Flow.result) =
  List.filter_map
    (fun s -> if s.Flow.sg_detail = "restored from checkpoint" then Some s.Flow.sg_name else None)
    r.Flow.f_stages

(* A resume that lost every sa snapshot restarts the seeded anneal from
   the restored ap layout. The probe is deterministic, so it re-probes
   the uninterrupted run's T0 and replays that run exactly. *)
let test_lost_snapshots_reprobe () =
  let arch, nl, base = preset ~seed:23 () in
  let dir = "flow-lost-snapshots" in
  let config = Config.(base |> with_flow_preset "ap+sa" |> with_run_dir dir) in
  rmrf dir;
  Fun.protect
    ~finally:(fun () -> rmrf dir)
    (fun () ->
      let reference = Flow.run_exn ~config arch nl in
      remove_files dir ~prefix:"snap-";
      let resumed = Flow.run_exn ~config ~resume:true arch nl in
      Alcotest.(check (list string)) "ap restored" [ "ap" ] (restored_stages resumed);
      Alcotest.(check bool) "a seeded anneal ran" true (reference.Flow.f_seed_temperature <> None);
      Alcotest.(check bool) "re-probed the seed temperature" true
        (reference.Flow.f_seed_temperature = resumed.Flow.f_seed_temperature);
      Alcotest.(check string) "resumed run lands exactly on the reference"
        (Rs.snapshot reference.Flow.f_route)
        (Rs.snapshot resumed.Flow.f_route);
      Alcotest.(check (float 0.0)) "same delay" reference.Flow.f_critical_delay
        resumed.Flow.f_critical_delay)

(* Every layout stage leaves a checkpoint, the last one included, so a
   finished seq run resumes with greedy and route restored and only sta
   recomputed. *)
let test_finished_seq_resumes () =
  let arch, nl, base = preset ~seed:9 () in
  let dir = "flow-seq-finished" in
  let config = Config.(base |> with_flow_preset "seq" |> with_run_dir dir) in
  rmrf dir;
  Fun.protect
    ~finally:(fun () -> rmrf dir)
    (fun () ->
      let reference = Flow.run_exn ~config arch nl in
      let resumed = Flow.run_exn ~config ~resume:true arch nl in
      Alcotest.(check (list string)) "greedy and route restored" [ "greedy"; "route" ]
        (restored_stages resumed);
      Alcotest.(check (list string)) "every stage reported" [ "greedy"; "route"; "sta" ]
        (List.map (fun s -> s.Flow.sg_name) resumed.Flow.f_stages);
      Alcotest.(check string) "resumed run lands exactly on the reference"
        (Rs.snapshot reference.Flow.f_route)
        (Rs.snapshot resumed.Flow.f_route);
      Alcotest.(check int) "same g" reference.Flow.f_g resumed.Flow.f_g;
      Alcotest.(check int) "same d" reference.Flow.f_d resumed.Flow.f_d;
      Alcotest.(check (float 0.0)) "same delay" reference.Flow.f_critical_delay
        resumed.Flow.f_critical_delay)

(* A finished seq run whose route checkpoint is torn or gone resumes
   from the greedy checkpoint before it, and with no stage checkpoint
   left starts fresh; every resume lands on the uninterrupted layout
   and none raises. *)
let test_lost_last_stage_checkpoint () =
  let arch, nl, base = preset ~seed:9 () in
  let dir = "flow-seq-lost-stage" in
  let config = Config.(base |> with_flow_preset "seq" |> with_run_dir dir) in
  let greedy = Filename.concat dir "stage-00-greedy.ckpt" in
  let route = Filename.concat dir "stage-01-route.ckpt" in
  let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text) in
  rmrf dir;
  Fun.protect
    ~finally:(fun () -> rmrf dir)
    (fun () ->
      let reference = Flow.run_exn ~config arch nl in
      let read path = In_channel.with_open_bin path In_channel.input_all in
      let greedy_text = read greedy and route_text = read route in
      List.iter
        (fun (label, damage, restored) ->
          write greedy greedy_text;
          write route route_text;
          damage ();
          match Flow.run ~config ~resume:true arch nl with
          | exception e -> Alcotest.failf "%s: resume raised %s" label (Printexc.to_string e)
          | Error e -> Alcotest.failf "%s: resume failed: %s" label (Tool.error_to_string e)
          | Ok r ->
            Alcotest.(check (list string)) (label ^ ": restored stages") restored
              (restored_stages r);
            Alcotest.(check string) (label ^ ": lands on the reference")
              (Rs.snapshot reference.Flow.f_route)
              (Rs.snapshot r.Flow.f_route);
            Alcotest.(check (float 0.0)) (label ^ ": same delay")
              reference.Flow.f_critical_delay r.Flow.f_critical_delay)
        [
          ( "truncated route checkpoint",
            (fun () -> write route (String.sub route_text 0 (String.length route_text / 2))),
            [ "greedy" ] );
          ("deleted route checkpoint", (fun () -> Sys.remove route), [ "greedy" ]);
          ("no stage checkpoint", (fun () -> remove_files dir ~prefix:"stage-"), []);
        ])

let stage_names (r : Flow.result) = List.map (fun s -> s.Flow.sg_name) r.Flow.f_stages

(* The result holds its placement with no net routed. *)
let unrouted (r : Flow.result) =
  let fresh = Rs.create r.Flow.f_place in
  Rs.snapshot fresh = Rs.snapshot r.Flow.f_route

(* The status the [run_end] row of a flow's trace file reports. *)
let traced_status path =
  match Spr_obs.Trace.of_file path with
  | Error e -> Alcotest.failf "trace %s: %s" path e
  | Ok events ->
    List.find_map
      (fun e -> match e.Spr_obs.Trace.ev with Spr_obs.Trace.Run_end r -> Some r.status | _ -> None)
      events

(* A seq run that the stop condition cuts short in greedy, whether by
   the interrupt flag or by its time budget, ends there: route and sta
   do not run, no greedy checkpoint is written, and the result (and its
   trace) is the greedy placement, unrouted. Its resume re-runs greedy
   from its start and lands on the uninterrupted layout and delay. *)
let test_seq_stopped_in_greedy () =
  let arch, nl, base = preset ~seed:9 () in
  let base = Config.with_flow_preset "seq" base in
  let reference = Flow.run_exn ~config:base arch nl in
  let dir = "flow-seq-stopped" and trace = "flow-seq-stopped.jsonl" in
  List.iter
    (fun (label, stop, config, reason) ->
      rmrf dir;
      Fun.protect
        ~finally:(fun () ->
          Tool.reset_interrupt ();
          rmrf dir;
          rmrf trace)
        (fun () ->
          stop ();
          let config = Config.(config |> with_run_dir dir |> with_trace_file trace) in
          let stopped = Flow.run_exn ~config arch nl in
          Tool.reset_interrupt ();
          Alcotest.(check bool) (label ^ ": interrupted") true
            (stopped.Flow.f_status = Tool.Interrupted reason);
          Alcotest.(check (option string)) (label ^ ": the trace reports it")
            (Some (Tool.status_to_string (Tool.Interrupted reason)))
            (traced_status trace);
          Alcotest.(check (list string)) (label ^ ": the flow ended in greedy") [ "greedy" ]
            (stage_names stopped);
          Alcotest.(check bool) (label ^ ": no greedy checkpoint") false
            (Sys.file_exists (Filename.concat dir "stage-00-greedy.ckpt"));
          Alcotest.(check bool) (label ^ ": the placement is unrouted") true (unrouted stopped);
          let resumed = Flow.run_exn ~config:(Config.with_run_dir dir base) ~resume:true arch nl in
          Alcotest.(check (list string)) (label ^ ": nothing restored") [] (restored_stages resumed);
          Alcotest.(check bool) (label ^ ": the resume completes") true
            (resumed.Flow.f_status = Tool.Completed);
          Alcotest.(check string) (label ^ ": lands on the uninterrupted layout")
            (Rs.snapshot reference.Flow.f_route)
            (Rs.snapshot resumed.Flow.f_route);
          Alcotest.(check (float 0.0)) (label ^ ": same delay") reference.Flow.f_critical_delay
            resumed.Flow.f_critical_delay))
    [
      ("interrupt", Tool.request_interrupt, base, Tool.Interrupt);
      ("time budget", ignore, Config.with_time_budget 1e-6 base, Tool.Time_budget);
    ]

(* The flow checks the stop condition before each stage: a resume that
   restores greedy while an interrupt is pending stops before route,
   with greedy's placement, unrouted. *)
let test_stop_between_stages () =
  let arch, nl, base = preset ~seed:9 () in
  let dir = "flow-seq-between" in
  let config = Config.(base |> with_flow_preset "seq" |> with_run_dir dir) in
  rmrf dir;
  Fun.protect
    ~finally:(fun () ->
      Tool.reset_interrupt ();
      rmrf dir)
    (fun () ->
      ignore (Flow.run_exn ~config arch nl : Flow.result);
      Sys.remove (Filename.concat dir "stage-01-route.ckpt");
      Tool.request_interrupt ();
      let r = Flow.run_exn ~config ~resume:true arch nl in
      Alcotest.(check bool) "interrupted" true (r.Flow.f_status = Tool.Interrupted Tool.Interrupt);
      Alcotest.(check (list string)) "greedy restored, nothing run" [ "greedy" ] (stage_names r);
      Alcotest.(check (list string)) "restored" [ "greedy" ] (restored_stages r);
      Alcotest.(check bool) "the placement is unrouted" true (unrouted r))

(* A resume reads the run directory the config names, and there is
   nothing to resume without one. *)
let test_resume_needs_run_dir () =
  let arch, nl, config = preset ~seed:9 () in
  List.iter
    (fun flow ->
      match Flow.run ~config:(Config.with_flow_preset flow config) ~resume:true arch nl with
      | Error (Tool.Invalid_config msg) ->
        Alcotest.(check bool) (flow ^ ": names the run directory") true
          (contains ~needle:"run directory" msg)
      | Error e -> Alcotest.failf "%s: wrong error: %s" flow (Tool.error_to_string e)
      | Ok _ -> Alcotest.failf "%s: resumed without a run directory" flow)
    [ "sa"; "seq" ]

(* A Ctrl-C that lands during ap stops the flow there: ap returns the
   placement it holds, writes no checkpoint, and sa never starts. *)
let test_interrupt_stops_ap () =
  let arch, nl, config = preset ~seed:5 () in
  let dir = "flow-ap-interrupted" in
  rmrf dir;
  Fun.protect
    ~finally:(fun () ->
      Tool.reset_interrupt ();
      rmrf dir)
    (fun () ->
      Tool.request_interrupt ();
      let config = Config.(config |> with_flow_preset "ap+sa" |> with_run_dir dir) in
      let r = Flow.run_exn ~config arch nl in
      Alcotest.(check bool) "interrupted" true (r.Flow.f_status = Tool.Interrupted Tool.Interrupt);
      Alcotest.(check (list string)) "the flow ended in ap" [ "ap" ] (stage_names r);
      Alcotest.(check bool) "no sa stage ran" true (r.Flow.f_fleet = None);
      Alcotest.(check bool) "no ap checkpoint" false
        (Sys.file_exists (Filename.concat dir "stage-00-ap.ckpt")))

(* --- serve admission --- *)

let test_job_spec_flow_validation () =
  let ok = { Spec.default with flow = "ap+sa" } in
  (match Spec.validate ok with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid flow rejected: %s" e);
  let bad = { Spec.default with flow = "warp9" } in
  (match Spec.validate bad with
  | Ok () -> Alcotest.fail "bogus flow admitted"
  | Error e -> Alcotest.(check bool) "error names the flow" true (contains ~needle:"warp9" e));
  (* Specs written before the flow field existed decode as sa. *)
  let json =
    match Spec.to_json Spec.default with
    | Spr_obs.Json.Obj fields ->
      Spr_obs.Json.Obj (List.filter (fun (k, _) -> k <> "flow") fields)
    | _ -> Alcotest.fail "spec_to_json shape"
  in
  match Spec.of_json json with
  | Ok spec -> Alcotest.(check string) "old specs default to sa" "sa" spec.Spec.flow
  | Error e -> Alcotest.failf "old spec rejected: %s" e

(* The free-running racing spelling was deleted; a submitted spec
   naming it does not decode, and the error names it and the one
   scheduler left. *)
let test_job_spec_rejects_removed_scheduler () =
  let removed = String.concat ":" [ "racing"; "free" ] in
  let json =
    match Spec.to_json Spec.default with
    | Spr_obs.Json.Obj fields ->
      Spr_obs.Json.Obj (("scheduler", Spr_obs.Json.String removed) :: fields)
    | _ -> Alcotest.fail "spec_to_json shape"
  in
  match Spec.of_json json with
  | Ok _ -> Alcotest.failf "scheduler %s admitted" removed
  | Error e ->
    Alcotest.(check bool) ("error names the valid scheduler: " ^ e) true
      (contains ~needle:removed e && contains ~needle:"barrier" e)

let () =
  Alcotest.run "spr_flow"
    [
      ( "config",
        [
          Alcotest.test_case "presets resolve" `Quick test_presets_resolve;
          Alcotest.test_case "bad preset rejected with vocabulary" `Quick
            test_bad_preset_rejected;
          Alcotest.test_case "a move budget needs an sa stage" `Quick test_move_budget_needs_sa;
        ] );
      ("ap", [ Alcotest.test_case "deterministic and legal" `Quick test_ap_deterministic ]);
      ( "presets",
        [
          Alcotest.test_case "sa == Tool.run bit-identical" `Quick
            test_sa_preset_matches_tool;
          Alcotest.test_case "seq deterministic" `Quick test_seq_preset_deterministic;
        ] );
      ( "resume",
        [
          Alcotest.test_case "ap+sa kill mid-sa and resume" `Quick test_ap_sa_kill_resume;
          Alcotest.test_case "an interrupt during ap stops the flow there" `Quick
            test_interrupt_stops_ap;
          Alcotest.test_case "a resume that lost its sa snapshots re-probes and replays" `Quick
            test_lost_snapshots_reprobe;
          Alcotest.test_case "a finished seq flow resumes without re-running a stage" `Quick
            test_finished_seq_resumes;
          Alcotest.test_case "a lost last stage checkpoint falls back to the one before" `Quick
            test_lost_last_stage_checkpoint;
          Alcotest.test_case "a seq run stopped in greedy resumes from its start" `Quick
            test_seq_stopped_in_greedy;
          Alcotest.test_case "a stop between stages keeps the last finished one" `Quick
            test_stop_between_stages;
          Alcotest.test_case "a resume needs a run directory" `Quick test_resume_needs_run_dir;
        ] );
      ( "serve",
        [
          Alcotest.test_case "job admission validates flow" `Quick
            test_job_spec_flow_validation;
          Alcotest.test_case "job admission rejects the deleted racing spelling" `Quick
            test_job_spec_rejects_removed_scheduler;
        ] );
    ]
