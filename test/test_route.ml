module Rs = Spr_route.Route_state
module Router = Spr_route.Router
module Gr = Spr_route.Global_router
module Dr = Spr_route.Detail_router
module P = Spr_layout.Placement
module Arch = Spr_arch.Arch
module Nl = Spr_netlist.Netlist
module Gen = Spr_netlist.Generator
module Rng = Spr_util.Rng
module J = Spr_util.Journal
module I = Spr_util.Interval

let qtest = QCheck_alcotest.to_alcotest

let make_state ?(n_cells = 80) ?(seed = 5) ?(tracks = 16) () =
  let nl = Gen.generate (Gen.default ~n_cells) ~seed in
  let arch = Arch.size_for ~tracks nl in
  let rng = Rng.create (seed + 1) in
  let place = P.create_exn arch nl ~rng in
  (Rs.create place, nl, arch)

let check_ok st label =
  match Rs.check st with Ok () -> () | Error e -> Alcotest.failf "%s: %s" label e

(* --- fresh state --- *)

let test_fresh_state () =
  let st, nl, _ = make_state () in
  check_ok st "fresh";
  Alcotest.(check bool) "nothing routed yet" true (Rs.d_count st > 0);
  Alcotest.(check bool) "g <= d" true (Rs.g_count st <= Rs.d_count st);
  Alcotest.(check bool) "routable nets counted" true (Rs.n_routable st <= Nl.n_nets nl);
  (* every routable net is queued somewhere *)
  let in_ug = Rs.u_g st in
  Alcotest.(check int) "u_g matches g" (Rs.g_count st) (List.length in_ug)

let test_route_all_invariants =
  QCheck.Test.make ~name:"route_all leaves a valid state (random seeds)" ~count:15
    QCheck.small_int (fun seed ->
      let st, _, _ = make_state ~seed:(seed mod 19) () in
      Router.route_all st;
      match Rs.check st with Ok () -> true | Error _ -> false)

let test_route_all_makes_progress () =
  let st, _, _ = make_state ~tracks:24 () in
  let d0 = Rs.d_count st in
  Router.route_all st;
  Alcotest.(check bool) "most nets routed" true (Rs.d_count st < d0 / 4)

(* --- claims and rip-up --- *)

let count_owned st arch =
  let owned = ref 0 in
  for ch = 0 to arch.Arch.n_channels - 1 do
    for tr = 0 to arch.Arch.tracks - 1 do
      let n = Array.length (Arch.hsegments arch ~channel:ch ~track:tr) in
      for s = 0 to n - 1 do
        if Rs.hseg_owner st ~channel:ch ~track:tr ~seg:s <> -1 then incr owned
      done
    done
  done;
  for col = 0 to arch.Arch.cols - 1 do
    for vt = 0 to arch.Arch.vtracks - 1 do
      let n = Array.length (Arch.vsegments arch ~col ~vtrack:vt) in
      for s = 0 to n - 1 do
        if Rs.vseg_owner st ~col ~vtrack:vt ~seg:s <> -1 then incr owned
      done
    done
  done;
  !owned

let test_rip_all_frees_everything () =
  let st, nl, arch = make_state () in
  Router.route_all st;
  Alcotest.(check bool) "something owned" true (count_owned st arch > 0);
  let j = J.create () in
  for net = 0 to Nl.n_nets nl - 1 do
    Rs.rip_up st j net
  done;
  J.commit j;
  Alcotest.(check int) "all segments free" 0 (count_owned st arch);
  check_ok st "after mass rip"

let test_hroute_covers_span () =
  let st, nl, arch = make_state ~tracks:24 () in
  Router.route_all st;
  for net = 0 to Nl.n_nets nl - 1 do
    List.iter
      (fun (ch, hr) ->
        let segs = Arch.hsegments arch ~channel:ch ~track:hr.Rs.h_track in
        let covered = I.make segs.(hr.Rs.h_slo).I.lo segs.(hr.Rs.h_shi).I.hi in
        Alcotest.(check bool) "route covers span" true (I.covers covered hr.Rs.h_span);
        (* claimed run is owned by this net *)
        for s = hr.Rs.h_slo to hr.Rs.h_shi do
          Alcotest.(check int) "segment owner" net
            (Rs.hseg_owner st ~channel:ch ~track:hr.Rs.h_track ~seg:s)
        done)
      (Rs.h_routes st net)
  done

let test_spine_covers_channels () =
  let st, nl, arch = make_state ~tracks:24 () in
  Router.route_all st;
  let place = Rs.place st in
  for net = 0 to Nl.n_nets nl - 1 do
    match Rs.global_route st net with
    | None -> ()
    | Some vr -> (
      match P.net_channel_span place net with
      | None -> Alcotest.fail "routed net without pins"
      | Some (clo, chi) ->
        Alcotest.(check bool) "spine covers channel span" true
          (I.covers vr.Rs.v_span (I.make clo chi));
        let segs = Arch.vsegments arch ~col:vr.Rs.v_col ~vtrack:vr.Rs.v_vtrack in
        let covered = I.make segs.(vr.Rs.v_slo).I.lo segs.(vr.Rs.v_shi).I.hi in
        Alcotest.(check bool) "claimed verticals cover spine span" true
          (I.covers covered vr.Rs.v_span))
  done

let test_demands_include_spine_column () =
  let st, nl, _ = make_state ~tracks:24 () in
  Router.route_all st;
  for net = 0 to Nl.n_nets nl - 1 do
    match Rs.global_route st net with
    | None -> ()
    | Some vr ->
      List.iter
        (fun (_, span) ->
          Alcotest.(check bool) "demand reaches the spine" true (I.contains span vr.Rs.v_col))
        (Rs.h_demands st net)
  done

(* A net's runs, and every delay bit computed from them, depend on the
   routed state alone: claiming the same runs in two channel orders must
   give the same route list and bit-identical sink delays. Each net that
   spans channels is claimed alone on the empty fabric, then rolled
   back. *)
let test_claim_order_independent () =
  let st_a, nl, _ = make_state ~tracks:24 () in
  let st_b, _, _ = make_state ~tracks:24 () in
  let claim st net order =
    let j = J.create () in
    Alcotest.(check bool) "spine claimed" true (Gr.attempt st j net);
    List.iter
      (fun channel ->
        Alcotest.(check bool) "channel run claimed" true (Dr.attempt st j ~net ~channel))
      (order (List.map fst (Rs.h_demands st net)));
    let routes = Rs.h_routes st net in
    let bits =
      Array.map Int64.bits_of_float
        (Spr_timing.Net_delay.sink_delays Spr_timing.Delay_model.default st net)
    in
    J.rollback j;
    (routes, bits)
  in
  let nets = List.filter (Rs.needs_global st_a) (List.init (Nl.n_nets nl) Fun.id) in
  Alcotest.(check bool) "some nets span channels" true (nets <> []);
  List.iter
    (fun net ->
      let routes_a, bits_a = claim st_a net (List.sort compare) in
      let routes_b, bits_b = claim st_b net (List.sort (fun a b -> compare b a)) in
      Alcotest.(check bool) "h_routes equal" true (routes_a = routes_b);
      Alcotest.(check (list int)) "h_routes in ascending channel order"
        (List.sort compare (List.map fst routes_a))
        (List.map fst routes_a);
      Alcotest.(check (array int64)) "sink delays bit-identical" bits_a bits_b)
    nets

(* --- transactional rollback --- *)

let test_rollback_exact =
  QCheck.Test.make ~name:"rip+reroute rollback restores the exact state" ~count:25
    QCheck.small_int (fun seed ->
      let st, nl, _ = make_state ~seed:(seed mod 11) () in
      Router.route_all st;
      let before = Rs.snapshot st in
      let rng = Rng.create (seed + 7) in
      let j = J.create () in
      for _ = 1 to 20 do
        let cell = Rng.int rng (Nl.n_cells nl) in
        ignore (Router.rip_up_cell st j cell : int list);
        ignore (Router.reroute st j : int list)
      done;
      J.rollback j;
      Rs.snapshot st = before)

let test_commit_keeps_changes () =
  let st, nl, _ = make_state () in
  Router.route_all st;
  let before = Rs.snapshot st in
  let j = J.create () in
  ignore (Router.rip_up_cell st j 0 : int list);
  J.commit j;
  (* a cell always touches at least one net, so the state changed *)
  Alcotest.(check bool) "cell 0 has nets" true (Nl.nets_of_cell nl 0 <> []);
  Alcotest.(check bool) "state changed after commit" true (Rs.snapshot st <> before);
  check_ok st "after commit"

let test_nested_transactions () =
  let st, nl, _ = make_state () in
  Router.route_all st;
  let s0 = Rs.snapshot st in
  let j = J.create () in
  ignore (Router.rip_up_cell st j 1 : int list);
  let m = J.mark j in
  ignore (Router.rip_up_cell st j 2 : int list);
  J.rollback_to j m;
  ignore nl;
  J.rollback j;
  Alcotest.(check bool) "outer rollback restores" true (Rs.snapshot st = s0);
  check_ok st "after nested rollback"

(* --- incremental rerouting matches the paper's mechanics --- *)

let test_rip_queues_net () =
  let st, nl, _ = make_state ~tracks:24 () in
  Router.route_all st;
  (* pick a fully routed multi-channel net; rip its driver's cell *)
  let victim = ref (-1) in
  for net = 0 to Nl.n_nets nl - 1 do
    if !victim = -1 && Rs.is_fully_routed st net && Rs.needs_global st net then victim := net
  done;
  if !victim >= 0 then begin
    let driver = (Nl.net nl !victim).Nl.driver in
    let j = J.create () in
    let ripped = Router.rip_up_cell st j driver in
    Alcotest.(check bool) "victim among ripped" true (List.mem !victim ripped);
    Alcotest.(check bool) "victim queued for global" true (List.mem !victim (Rs.u_g st));
    Alcotest.(check bool) "victim no longer routed" false (Rs.is_fully_routed st !victim);
    (* rerouting should recover it in this uncongested fabric *)
    let routed = Router.reroute st j in
    Alcotest.(check bool) "victim rerouted" true
      (List.mem !victim routed && Rs.is_fully_routed st !victim);
    J.rollback j;
    check_ok st "after rollback"
  end

let test_failure_memoization () =
  let st, nl, _ = make_state ~tracks:16 () in
  Router.route_all st;
  match Rs.u_g st with
  | [] -> ()  (* everything routed; nothing to memoize *)
  | net :: _ ->
    (* after route_all the failure is recorded: not pending *)
    Alcotest.(check bool) "failure memoized" false (Rs.global_attempt_pending st net);
    Rs.force_retry st net;
    Alcotest.(check bool) "force_retry clears it" true (Rs.global_attempt_pending st net);
    ignore nl

let test_detail_router_prefers_low_waste () =
  (* Single channel, two tracks: one full-length segment and one
     uniformly cut track; a short net should take the low-waste track. *)
  let nl =
    let b = Nl.Builder.create () in
    let pi = Nl.Builder.add_cell b ~name:"pi" ~kind:Spr_netlist.Cell_kind.Input ~n_inputs:0 in
    let po = Nl.Builder.add_cell b ~name:"po" ~kind:Spr_netlist.Cell_kind.Output ~n_inputs:1 in
    let n = Nl.Builder.add_net b ~name:"n" ~driver:pi in
    Nl.Builder.add_sink b ~net:n ~cell:po ~pin:0;
    Nl.Builder.finish_exn b
  in
  (* rows=1 so both cells are on row 0 (perimeter); all pins in channels
     0/1 *)
  let arch =
    Arch.create ~rows:1 ~cols:12 ~tracks:4 ~hscheme:(Spr_arch.Segmentation.Uniform 3) ()
  in
  let place = P.create_exn arch nl ~rng:(Rng.create 3) in
  let st = Rs.create place in
  Router.route_all st;
  Alcotest.(check bool) "tiny net routed" true (Rs.fully_routed st);
  (* the chosen route's wastage should be bounded by a segment length *)
  List.iter
    (fun (ch, hr) ->
      let segs = Arch.hsegments arch ~channel:ch ~track:hr.Rs.h_track in
      let covered = I.make segs.(hr.Rs.h_slo).I.lo segs.(hr.Rs.h_shi).I.hi in
      let waste = I.length covered - I.length hr.Rs.h_span in
      Alcotest.(check bool) "bounded wastage" true (waste <= 4))
    (Rs.h_routes st 0)

let test_best_track_none_when_full () =
  let st, _, arch = make_state ~n_cells:40 ~tracks:2 () in
  (* claim every segment of channel 1 by hand through the public API is
     not possible, so instead check best_track on a span wider than the
     channel *)
  let too_wide = I.make 0 (arch.Arch.cols + 5) in
  Alcotest.(check bool) "no track for out-of-range span" true
    (Dr.best_track st ~channel:1 ~span:too_wide = None)

let test_global_attempt_on_trivial_net () =
  let st, nl, _ = make_state () in
  (* attempting a net not in U_G must not succeed spuriously: pick a net
     with fewer than 2 pins if one exists *)
  let j = J.create () in
  for net = 0 to Nl.n_nets nl - 1 do
    if Array.length (Nl.net nl net).Nl.sinks = 0 then
      Alcotest.(check bool) "no-op on sinkless net" false (Gr.attempt st j net)
  done

(* --- counters --- *)

let test_counts_consistent =
  QCheck.Test.make ~name:"g/d counts equal queue census" ~count:15 QCheck.small_int
    (fun seed ->
      let st, _, arch = make_state ~seed:(seed mod 23) ~tracks:12 () in
      Router.route_all st;
      let g = List.length (Rs.u_g st) in
      (* census of nets missing at least one channel *)
      let missing = Hashtbl.create 16 in
      for ch = 0 to arch.Arch.n_channels - 1 do
        List.iter (fun net -> Hashtbl.replace missing net ()) (Rs.u_d st ch)
      done;
      let d_census = Hashtbl.length missing + g in
      g = Rs.g_count st && d_census = Rs.d_count st)

(* --- deterministic retry order (paper §3.3/§3.4) --- *)

(* The spec order: estimated length (key) descending, net id descending
   on ties — computed here independently of the queue implementation. *)
let spec_order ~len queue =
  List.sort
    (fun a b ->
      let ka = len a and kb = len b in
      if ka <> kb then compare kb ka else compare b a)
    queue

let test_ug_retry_order () =
  let st, _, _ = make_state ~tracks:6 () in
  Router.route_all st;
  let q = Rs.u_g st in
  Alcotest.(check bool) "congested fabric leaves a retry queue" true (q <> []);
  let place = Rs.place st in
  Alcotest.(check (list int)) "u_g in length-desc/id-desc order"
    (spec_order ~len:(P.half_perimeter place) q)
    q;
  Alcotest.(check (list int)) "repeated enumeration is identical" q (Rs.u_g st)

let test_ud_retry_order () =
  let st, _, arch = make_state ~tracks:6 () in
  Router.route_all st;
  let seen = ref false in
  for ch = 0 to arch.Arch.n_channels - 1 do
    let q = Rs.u_d st ch in
    if q <> [] then begin
      seen := true;
      let len net = I.length (List.assoc ch (Rs.h_demands st net)) in
      Alcotest.(check (list int))
        (Printf.sprintf "u_d channel %d in span-desc/id-desc order" ch)
        (spec_order ~len q) q
    end
  done;
  Alcotest.(check bool) "some channel has a detail retry queue" true !seen

let test_retry_order_survives_rollback =
  QCheck.Test.make ~name:"rollback restores retry queues bit-for-bit" ~count:15
    QCheck.(pair small_int (int_range 0 39))
    (fun (seed, cell) ->
      let st, _, arch = make_state ~n_cells:40 ~seed:(seed mod 13) ~tracks:6 () in
      Router.route_all st;
      let ug_before = Rs.u_g st in
      let ud_before = List.init arch.Arch.n_channels (Rs.u_d st) in
      let j = J.create () in
      ignore (Router.rip_up_cell st j cell : int list);
      ignore (Router.reroute st j : int list);
      J.rollback j;
      Rs.u_g st = ug_before && List.init arch.Arch.n_channels (Rs.u_d st) = ud_before)

let test_split_reroute_equals_combined =
  QCheck.Test.make ~name:"reroute_global+reroute_detail == reroute" ~count:10
    QCheck.(pair small_int (int_range 0 39))
    (fun (seed, cell) ->
      let seed = seed mod 13 in
      let make () =
        let st, _, _ = make_state ~n_cells:40 ~seed ~tracks:10 () in
        Router.route_all st;
        let j = J.create () in
        ignore (Router.rip_up_cell st j cell : int list);
        (st, j)
      in
      let st1, j1 = make () and st2, j2 = make () in
      let combined = Router.reroute st1 j1 in
      let split =
        let g = Router.reroute_global st2 j2 in
        let d = Router.reroute_detail st2 j2 in
        List.sort_uniq compare (List.rev_append g d)
      in
      combined = split && Rs.snapshot st1 = Rs.snapshot st2)

(* --- Route_stats --- *)

let test_stats_consistency () =
  let st, nl, arch = make_state ~tracks:24 () in
  Spr_route.Router.route_all st;
  let stats = Spr_route.Route_stats.collect st in
  let open Spr_route.Route_stats in
  Alcotest.(check int) "routed + unrouted = routable" (Rs.n_routable st)
    (stats.routed_nets + stats.unrouted_nets);
  Alcotest.(check bool) "wirelength positive" true (stats.horizontal_wirelength > 0);
  Alcotest.(check bool) "cross fuses >= 2 per routed net" true
    (stats.cross_antifuses >= 2 * stats.routed_nets);
  Alcotest.(check int) "one channel record per channel" arch.Arch.n_channels
    (List.length stats.channels);
  List.iter
    (fun cu ->
      Alcotest.(check bool) "used <= total len" true (cu.cu_used_len <= cu.cu_total_len);
      Alcotest.(check bool) "used <= total segs" true
        (cu.cu_used_segments <= cu.cu_total_segments);
      Alcotest.(check int) "total len = tracks * cols" (arch.Arch.tracks * arch.Arch.cols)
        cu.cu_total_len)
    stats.channels;
  Alcotest.(check bool) "vertical used <= total" true
    (stats.vertical_used <= stats.vertical_total);
  Alcotest.(check bool) "total antifuses adds up" true
    (total_antifuses stats
    = stats.horizontal_antifuses + stats.vertical_antifuses + stats.cross_antifuses);
  ignore nl

let test_stats_empty_state () =
  let st, _, _ = make_state () in
  (* nothing routed yet *)
  let stats = Spr_route.Route_stats.collect st in
  let open Spr_route.Route_stats in
  Alcotest.(check int) "nothing routed" 0 stats.routed_nets;
  Alcotest.(check int) "no wirelength" 0 stats.horizontal_wirelength;
  Alcotest.(check int) "no fuses" 0 (total_antifuses stats)

let test_stats_wirelength_matches_ownership () =
  let st, _, arch = make_state ~tracks:24 () in
  Spr_route.Router.route_all st;
  let stats = Spr_route.Route_stats.collect st in
  (* summing claimed length over the ownership map must agree when every
     owner is fully routed; partially routed nets also own segments, so
     the ownership census is an upper bound *)
  let census = ref 0 in
  for ch = 0 to arch.Arch.n_channels - 1 do
    for tr = 0 to arch.Arch.tracks - 1 do
      let segs = Arch.hsegments arch ~channel:ch ~track:tr in
      Array.iteri
        (fun s seg ->
          if Rs.hseg_owner st ~channel:ch ~track:tr ~seg:s <> -1 then
            census := !census + I.length seg)
        segs
    done
  done;
  Alcotest.(check bool) "ownership census bounds stats wirelength" true
    (stats.Spr_route.Route_stats.horizontal_wirelength <= !census)

let () =
  Alcotest.run "spr_route"
    [
      ( "state",
        [
          Alcotest.test_case "fresh state" `Quick test_fresh_state;
          Alcotest.test_case "route_all makes progress" `Quick test_route_all_makes_progress;
          Alcotest.test_case "rip all frees everything" `Quick test_rip_all_frees_everything;
          qtest test_route_all_invariants;
          qtest test_counts_consistent;
        ] );
      ( "retry order",
        [
          Alcotest.test_case "u_g deterministic order" `Quick test_ug_retry_order;
          Alcotest.test_case "u_d deterministic order" `Quick test_ud_retry_order;
          qtest test_retry_order_survives_rollback;
          qtest test_split_reroute_equals_combined;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "hroutes cover spans" `Quick test_hroute_covers_span;
          Alcotest.test_case "spines cover channel spans" `Quick test_spine_covers_channels;
          Alcotest.test_case "demands reach the spine" `Quick test_demands_include_spine_column;
          Alcotest.test_case "routes independent of claim order" `Quick
            test_claim_order_independent;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "commit keeps changes" `Quick test_commit_keeps_changes;
          Alcotest.test_case "nested transactions" `Quick test_nested_transactions;
          qtest test_rollback_exact;
        ] );
      ( "stats",
        [
          Alcotest.test_case "consistency" `Quick test_stats_consistency;
          Alcotest.test_case "empty state" `Quick test_stats_empty_state;
          Alcotest.test_case "wirelength vs ownership" `Quick
            test_stats_wirelength_matches_ownership;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "rip queues and reroute recovers" `Quick test_rip_queues_net;
          Alcotest.test_case "failure memoization" `Quick test_failure_memoization;
          Alcotest.test_case "detail prefers low waste" `Quick test_detail_router_prefers_low_waste;
          Alcotest.test_case "best_track none for oversize span" `Quick test_best_track_none_when_full;
          Alcotest.test_case "global attempt on sinkless nets" `Quick test_global_attempt_on_trivial_net;
        ] );
    ]
