module Seq_place = Spr_seq.Seq_place
module Seq_route = Spr_seq.Seq_route
module Rs = Spr_route.Route_state
module Router = Spr_route.Router
module P = Spr_layout.Placement
module Arch = Spr_arch.Arch
module Nl = Spr_netlist.Netlist
module Gen = Spr_netlist.Generator
module Rng = Spr_util.Rng
module Engine = Spr_anneal.Engine

let small_case ?(n_cells = 60) ?(seed = 7) ?(tracks = 20) () =
  let nl = Gen.generate (Gen.default ~n_cells) ~seed in
  let arch = Arch.size_for ~tracks nl in
  (arch, nl)

let quick_anneal n =
  {
    (Engine.default_config ~n) with
    Engine.moves_per_temp = max 200 (4 * n);
    max_temperatures = 40;
  }

let test_placer_reduces_wirelength () =
  let arch, nl = small_case () in
  (* random placement wirelength as the baseline *)
  let random_place = P.create_exn arch nl ~rng:(Rng.create 99) in
  let wl_random = Seq_place.wirelength random_place in
  match Seq_place.run ~seed:1 ~anneal:(quick_anneal (Nl.n_cells nl)) arch nl with
  | Error e -> Alcotest.fail e
  | Ok (place, report) ->
    let wl = Seq_place.wirelength place in
    Alcotest.(check bool) "wirelength reduced vs random" true (wl < wl_random);
    Alcotest.(check bool) "cost improved" true
      (report.Engine.final_cost < report.Engine.initial_cost);
    (match P.check place with
    | Ok () -> ()
    | Error e -> Alcotest.failf "placement invalid: %s" e)

let test_placer_keeps_default_pinmaps () =
  let arch, nl = small_case () in
  match Seq_place.run ~seed:1 ~anneal:(quick_anneal (Nl.n_cells nl)) arch nl with
  | Error e -> Alcotest.fail e
  | Ok (place, _) ->
    for c = 0 to Nl.n_cells nl - 1 do
      Alcotest.(check int) "pinmap 0" 0 (P.pinmap_index place c)
    done

let test_seq_route_completes () =
  let arch, nl = small_case ~tracks:26 () in
  match Seq_place.run ~seed:1 ~anneal:(quick_anneal (Nl.n_cells nl)) arch nl with
  | Error e -> Alcotest.fail e
  | Ok (place, _) ->
    let st = Rs.create place in
    Seq_route.run ~rng:(Rng.create 4) st;
    Alcotest.(check bool) "fully routed at generous width" true (Rs.fully_routed st);
    (match Rs.check st with
    | Ok () -> ()
    | Error e -> Alcotest.failf "route state invalid: %s" e)

let test_seq_route_beats_plain_route_all () =
  (* The rip-up-and-retry loop should never leave more nets unrouted
     than a plain route_all on the same placement. *)
  let arch, nl = small_case ~tracks:12 () in
  match Seq_place.run ~seed:1 ~anneal:(quick_anneal (Nl.n_cells nl)) arch nl with
  | Error e -> Alcotest.fail e
  | Ok (place, _) ->
    let plain = Rs.create place in
    Router.route_all plain;
    let improved = Rs.create place in
    Seq_route.run ~rng:(Rng.create 4) improved;
    Alcotest.(check bool) "improvement loop helps or ties" true
      (Rs.d_count improved <= Rs.d_count plain)

(* The sequential baseline now lives behind the flow engine's "seq"
   preset (greedy place, route, sta) — these tests drive it the way
   every remaining caller does. *)
let seq_config ~seed n =
  Spr_core.Tool.Config.(
    default |> with_seed seed
    |> with_anneal (quick_anneal n)
    |> with_flow_preset "seq")

let test_flow_end_to_end () =
  let arch, nl = small_case ~tracks:26 () in
  let r = Spr_flow.run_exn ~config:(seq_config ~seed:3 (Nl.n_cells nl)) arch nl in
  Alcotest.(check bool) "routed" true r.Spr_flow.f_fully_routed;
  Alcotest.(check bool) "delay positive" true (r.Spr_flow.f_critical_delay > 0.0);
  Alcotest.(check bool) "wirelength positive" true
    (Seq_place.wirelength r.Spr_flow.f_place > 0.0);
  Alcotest.(check int) "g" 0 r.Spr_flow.f_g;
  Alcotest.(check int) "d" 0 r.Spr_flow.f_d

let test_flow_deterministic () =
  let arch, nl = small_case () in
  let config = seq_config ~seed:11 (Nl.n_cells nl) in
  let a = Spr_flow.run_exn ~config arch nl in
  let b = Spr_flow.run_exn ~config arch nl in
  Alcotest.(check (float 1e-9)) "same delay" a.Spr_flow.f_critical_delay
    b.Spr_flow.f_critical_delay;
  Alcotest.(check (float 1e-9)) "same wirelength"
    (Seq_place.wirelength a.Spr_flow.f_place)
    (Seq_place.wirelength b.Spr_flow.f_place)

let test_flow_rejects_cycles () =
  let b = Nl.Builder.create () in
  let a = Nl.Builder.add_cell b ~name:"a" ~kind:Spr_netlist.Cell_kind.Comb ~n_inputs:1 in
  let c = Nl.Builder.add_cell b ~name:"c" ~kind:Spr_netlist.Cell_kind.Comb ~n_inputs:1 in
  let na = Nl.Builder.add_net b ~name:"na" ~driver:a in
  let nc = Nl.Builder.add_net b ~name:"nc" ~driver:c in
  Nl.Builder.add_sink b ~net:na ~cell:c ~pin:0;
  Nl.Builder.add_sink b ~net:nc ~cell:a ~pin:0;
  let nl = Nl.Builder.finish_exn b in
  let arch = Arch.create ~rows:2 ~cols:4 ~tracks:4 () in
  match
    Spr_flow.run
      ~config:Spr_core.Tool.Config.(with_flow_preset "seq" default)
      arch nl
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "combinational cycle accepted"

let test_placer_bookkeeping_oracle () =
  let arch, nl = small_case () in
  match Seq_place.self_test arch nl ~seed:21 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "spr_seq"
    [
      ( "placer",
        [
          Alcotest.test_case "reduces wirelength" `Slow test_placer_reduces_wirelength;
          Alcotest.test_case "default pinmaps" `Slow test_placer_keeps_default_pinmaps;
          Alcotest.test_case "incremental bookkeeping oracle" `Quick
            test_placer_bookkeeping_oracle;
        ] );
      ( "router",
        [
          Alcotest.test_case "completes at generous width" `Slow test_seq_route_completes;
          Alcotest.test_case "improvement loop helps" `Slow test_seq_route_beats_plain_route_all;
        ] );
      ( "flow",
        [
          Alcotest.test_case "end to end" `Slow test_flow_end_to_end;
          Alcotest.test_case "deterministic" `Slow test_flow_deterministic;
          Alcotest.test_case "rejects cycles" `Quick test_flow_rejects_cycles;
        ] );
    ]
