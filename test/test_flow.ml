(* The composable flow engine: preset validation, analytical-seed
   determinism, bit-compat of the [sa] preset with a plain tool run,
   worker-count independence of the seeded anneal, and stage-boundary
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

let test_bad_preset_rejected () =
  let arch, nl, config = preset ~seed:3 () in
  let config = Config.with_flow_preset "warp9" config in
  match Flow.run ~config arch nl with
  | Error (Tool.Invalid_config msg) ->
    (* The error must teach: every valid preset is listed. *)
    List.iter
      (fun name ->
        Alcotest.(check bool)
          (Printf.sprintf "error lists %s" name)
          true (contains ~needle:name msg))
      Flow.preset_names
  | Error e -> Alcotest.failf "wrong error class: %s" (Tool.error_to_string e)
  | Ok _ -> Alcotest.fail "bogus preset accepted"

let test_bad_stage_budget_rejected () =
  let _, _, config = preset ~seed:3 () in
  let config = Config.with_stage_budget "sa" (-2.0) config in
  match Config.validated config with
  | Error msg -> Alcotest.(check bool) "mentions budget" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "negative stage budget accepted"

let test_stage_budget_builder_overwrites () =
  let _, _, config = preset ~seed:3 () in
  let config =
    Config.(config |> with_stage_budget "sa" 5.0 |> with_stage_budget "sa" 9.0)
  in
  match List.assoc_opt "sa" config.Config.flow.Config.stage_budgets with
  | Some b -> Alcotest.(check (float 1e-9)) "last write wins" 9.0 b
  | None -> Alcotest.fail "budget missing"

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

(* The sa stage budget binds whatever the preset: preset sa stops at it
   too. *)
let test_sa_stage_budget () =
  let nl = Gen.generate (Gen.default ~n_cells:120) ~seed:4 in
  let arch = Arch.size_for ~tracks:18 nl in
  let config = Config.(default |> with_seed 4 |> with_stage_budget "sa" 0.2) in
  match (Flow.run_exn ~config arch nl).Flow.f_fleet with
  | None -> Alcotest.fail "no sa stage ran"
  | Some p ->
    Alcotest.(check bool) "sa stopped at its stage budget" true
      ((Tool.best_result p).Tool.status = Tool.Interrupted Tool.Time_budget)

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
         stage's checkpoint and flow.json were written at the stage
         boundary before sa began. *)
      let _crashed =
        Flow.run_exn
          ~config:
            Config.(
              base |> with_run_dir dir |> with_final_checkpoint false
              |> with_stop_after_accepted 40)
          arch nl
      in
      let resumed =
        Flow.run_exn ~config:(Config.with_run_dir dir base) ~resume_dir:dir arch nl
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

(* A Ctrl-C that lands during an earlier stage is still pending when
   the sa stage starts, so the anneal stops after its first move. *)
let test_interrupt_survives_earlier_stage () =
  let arch, nl, config = preset ~seed:5 () in
  Fun.protect ~finally:Tool.reset_interrupt (fun () ->
      Tool.request_interrupt ();
      let r = Flow.run_exn ~config:(Config.with_flow_preset "ap+sa" config) arch nl in
      match r.Flow.f_fleet with
      | None -> Alcotest.fail "no sa stage ran"
      | Some p ->
        let sa = Tool.best_result p in
        Alcotest.(check bool) "sa interrupted" true
          (sa.Tool.status = Tool.Interrupted Tool.Interrupt);
        Alcotest.(check int) "sa stopped after its first move" 1 (Flow.sa_moves r))

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
   naming it does not decode, and the error names the valid
   vocabulary. *)
let test_job_spec_rejects_removed_scheduler () =
  let removed = String.concat ":" [ "racing"; "free" ] in
  let json =
    match Spec.to_json Spec.default with
    | Spr_obs.Json.Obj fields ->
      Spr_obs.Json.Obj
        (List.map
           (fun (k, v) -> if k = "scheduler" then (k, Spr_obs.Json.String removed) else (k, v))
           fields)
    | _ -> Alcotest.fail "spec_to_json shape"
  in
  match Spec.of_json json with
  | Ok _ -> Alcotest.failf "scheduler %s admitted" removed
  | Error e ->
    Alcotest.(check bool) ("error names the valid schedulers: " ^ e) true
      (contains ~needle:removed e && contains ~needle:"barrier" e
      && contains ~needle:"racing)" e)

let () =
  Alcotest.run "spr_flow"
    [
      ( "config",
        [
          Alcotest.test_case "presets resolve" `Quick test_presets_resolve;
          Alcotest.test_case "bad preset rejected with vocabulary" `Quick
            test_bad_preset_rejected;
          Alcotest.test_case "negative stage budget rejected" `Quick
            test_bad_stage_budget_rejected;
          Alcotest.test_case "stage budget overwrite" `Quick
            test_stage_budget_builder_overwrites;
        ] );
      ("ap", [ Alcotest.test_case "deterministic and legal" `Quick test_ap_deterministic ]);
      ( "presets",
        [
          Alcotest.test_case "sa == Tool.run bit-identical" `Quick
            test_sa_preset_matches_tool;
          Alcotest.test_case "seq deterministic" `Quick test_seq_preset_deterministic;
          Alcotest.test_case "sa stage budget binds preset sa" `Quick test_sa_stage_budget;
        ] );
      ( "resume",
        [
          Alcotest.test_case "ap+sa kill mid-sa and resume" `Quick test_ap_sa_kill_resume;
          Alcotest.test_case "an interrupt during ap still stops sa" `Quick
            test_interrupt_survives_earlier_stage;
        ] );
      ( "serve",
        [
          Alcotest.test_case "job admission validates flow" `Quick
            test_job_spec_flow_validation;
          Alcotest.test_case "job admission rejects the deleted racing spelling" `Quick
            test_job_spec_rejects_removed_scheduler;
        ] );
    ]
