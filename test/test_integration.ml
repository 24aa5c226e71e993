(* Cross-library integration tests: both flows end to end on the same
   circuits, the simultaneous tool's quality claims in miniature, and a
   BLIF-driven run. *)

module Tool = Spr_core.Tool
module Flow = Spr_flow
module Rs = Spr_route.Route_state
module Sta = Spr_timing.Sta
module Arch = Spr_arch.Arch
module Nl = Spr_netlist.Netlist
module Gen = Spr_netlist.Generator
module Blif = Spr_netlist.Blif
module Circuits = Spr_netlist.Circuits
module Engine = Spr_anneal.Engine

let quick_tool n seed =
  Tool.Config.(
    default |> with_seed seed
    |> with_anneal
         {
           (Engine.default_config ~n) with
           Engine.moves_per_temp = max 300 (4 * n);
           max_temperatures = 45;
         })

(* The best replica of a fleet; a fleet of one is the plain anneal. *)
let run1 ~config arch nl = Tool.best_result (Tool.run_exn ~config arch nl)

let quick_flow n seed = Tool.Config.with_flow_preset "seq" (quick_tool n seed)

let test_both_flows_route_and_sim_wins () =
  let nl = Gen.generate (Gen.default ~n_cells:90) ~seed:17 in
  let n = Nl.n_cells nl in
  let arch = Arch.size_for ~tracks:28 nl in
  let seq = Flow.run_exn ~config:(quick_flow n 5) arch nl in
  let sim = run1 ~config:(quick_tool n 5) arch nl in
  Alcotest.(check bool) "seq routed" true seq.Flow.f_fully_routed;
  Alcotest.(check bool) "sim routed" true sim.Tool.fully_routed;
  (* The headline claim in miniature: the simultaneous tool should beat
     (or at worst tie within 5%) the sequential flow on worst-case
     delay. *)
  Alcotest.(check bool)
    (Printf.sprintf "sim delay %.1f vs seq %.1f" sim.Tool.critical_delay
       seq.Flow.f_critical_delay)
    true
    (sim.Tool.critical_delay <= seq.Flow.f_critical_delay *. 1.05)

let test_post_layout_sta_agrees_with_internal () =
  (* Paper: the external analyzer agreed within 10% with the tool's
     internal estimates. Ours share the delay model, so a from-scratch
     STA over the final embedding must agree exactly. *)
  let nl = Gen.generate (Gen.default ~n_cells:70) ~seed:3 in
  let n = Nl.n_cells nl in
  let arch = Arch.size_for ~tracks:24 nl in
  let sim = run1 ~config:(quick_tool n 2) arch nl in
  let fresh = Sta.create Spr_timing.Delay_model.default sim.Tool.route in
  Alcotest.(check (float 1e-6)) "post-layout STA matches" sim.Tool.critical_delay
    (Sta.critical_delay fresh)

let test_blif_through_full_flow () =
  let blif =
    {|.model pipeline
.inputs a b c
.outputs x y
.names a b t1
11 1
.latch t1 q1 0
.names q1 c t2
11 1
.latch t2 q2 0
.names q2 a x
11 1
.names q1 q2 y
11 1
.end
|}
  in
  match Blif.parse_string blif with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok nl ->
    let arch = Arch.create ~rows:3 ~cols:6 ~tracks:10 () in
    let r = run1 ~config:(quick_tool (Nl.n_cells nl) 1) arch nl in
    Alcotest.(check bool) "blif circuit routed" true r.Tool.fully_routed;
    Alcotest.(check bool) "delay positive" true (r.Tool.critical_delay > 0.0)

let test_presets_route_under_sim () =
  (* The smallest preset end to end with a modest effort profile. *)
  let nl = Circuits.make_by_name "cse" in
  let n = Nl.n_cells nl in
  let arch = Arch.size_for ~tracks:28 nl in
  let r = run1 ~config:(quick_tool n 1) arch nl in
  Alcotest.(check bool) "cse routed" true r.Tool.fully_routed

let test_sim_needs_fewer_tracks () =
  (* Table 2 in miniature: find the narrowest fabric each flow still
     routes (coarse descent), and check sim <= seq. *)
  let nl = Gen.generate (Gen.default ~n_cells:80) ~seed:23 in
  let n = Nl.n_cells nl in
  let min_tracks run_fn =
    let rec descend tracks last_good =
      if tracks < 6 then last_good
      else begin
        let arch = Arch.size_for ~tracks nl in
        if run_fn arch then descend (tracks - 3) tracks else last_good
      end
    in
    descend 24 27
  in
  let seq_min =
    min_tracks (fun arch -> (Flow.run_exn ~config:(quick_flow n 9) arch nl).Flow.f_fully_routed)
  in
  let sim_min =
    min_tracks (fun arch -> (run1 ~config:(quick_tool n 9) arch nl).Tool.fully_routed)
  in
  Alcotest.(check bool)
    (Printf.sprintf "sim min %d <= seq min %d" sim_min seq_min)
    true (sim_min <= seq_min)

let () =
  Alcotest.run "spr_integration"
    [
      ( "flows",
        [
          Alcotest.test_case "both route; sim wins on delay" `Slow
            test_both_flows_route_and_sim_wins;
          Alcotest.test_case "post-layout STA agrees" `Slow test_post_layout_sta_agrees_with_internal;
          Alcotest.test_case "blif through full flow" `Slow test_blif_through_full_flow;
          Alcotest.test_case "cse preset routes" `Slow test_presets_route_under_sim;
          Alcotest.test_case "sim needs fewer tracks" `Slow test_sim_needs_fewer_tracks;
        ] );
    ]
