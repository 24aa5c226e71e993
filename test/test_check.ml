(* Tests for the spr_check invariant-audit subsystem: the property
   harness over the real incremental state, auditor mutation coverage
   (an auditor that can't fail is worthless), the BLIF round-trip and
   seeded-determinism guarantees. *)

module Check = Spr_check
module Prop = Spr_check.Prop
module Ops = Spr_check.Spr_ops
module Audit = Spr_check.Audit
module Finding = Spr_check.Finding
module Rs = Spr_route.Route_state
module P = Spr_layout.Placement
module Arch = Spr_arch.Arch
module Nl = Spr_netlist.Netlist
module Gen = Spr_netlist.Generator
module Blif = Spr_netlist.Blif
module Levelize = Spr_netlist.Levelize
module Kind = Spr_netlist.Cell_kind
module Sta = Spr_timing.Sta
module J = Spr_util.Journal
module Tool = Spr_core.Tool
module Engine = Spr_anneal.Engine

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_findings label = function
  | [] -> ()
  | fs -> Alcotest.failf "%s:\n%s" label (Finding.summarize fs)

let expect_findings label auditor = function
  | [] -> Alcotest.failf "%s: auditor %s reported nothing for a seeded corruption" label auditor
  | fs ->
    if not (List.for_all (fun f -> f.Finding.auditor = auditor) fs) then
      Alcotest.failf "%s: expected only %s findings, got:\n%s" label auditor
        (Finding.summarize fs)

(* --- property-based differential testing --- *)

let test_prop_op_sequences () =
  let spec = Ops.spec ~n_cells:40 ~tracks:12 () in
  match Prop.run ~seeds:[ 1; 2; 3 ] ~n_ops:45 spec with
  | Ok () -> ()
  | Error f -> Alcotest.fail (Prop.failure_to_string spec f)

let test_prop_shrinker_reports () =
  (* A deliberately broken system: a counter that must stay below 3,
     and only Incr ops matter. The harness must find the failure and
     shrink the sequence to exactly 3 Incrs. *)
  let spec =
    {
      Prop.name = "counter stays under 3";
      init = (fun _ -> ref 0);
      gen = (fun rng -> if Spr_util.Rng.int rng 2 = 0 then `Incr else `Noise);
      apply = (fun st op -> match op with `Incr -> incr st | `Noise -> ());
      check = (fun st -> if !st >= 3 then Error "counter reached 3" else Ok ());
      show = (function `Incr -> "Incr" | `Noise -> "Noise");
    }
  in
  match Prop.run ~seeds:[ 1 ] ~n_ops:40 spec with
  | Ok () -> Alcotest.fail "broken property passed"
  | Error f ->
    Alcotest.(check int) "shrunk to the minimal sequence" 3 (List.length f.Prop.ops);
    Alcotest.(check bool) "all survivors are Incr" true
      (List.for_all (fun op -> op = `Incr) f.Prop.ops);
    let report = Prop.failure_to_string spec f in
    Alcotest.(check bool) "report names the seed" true (contains report "seed: 1");
    Alcotest.(check bool) "report lists the ops" true (contains report "Incr")

(* The dense incremental state — the journaled geometry memo in the
   placement and the bitset/sorted-queue unrouted structures in the
   routing state — must equal a from-scratch recomputation after any op
   sequence, including mid-transaction rollbacks. [P.check_caches] diffs
   every live memo entry against recomputed geometry; [Rs.check] diffs
   the queues, mirrors and counters against the fabric; on top of those
   we rebuild the U{_G} and U{_D,R} retry orders here from nothing but
   the netlist and current placement and require exact equality. *)
let test_dense_state_matches_scratch () =
  let module I = Spr_util.Interval in
  let desc (a : int * int) b = compare b a in
  let scratch_ug rs =
    let place = Rs.place rs in
    let keyed = ref [] in
    for net = Nl.n_nets (Rs.netlist rs) - 1 downto 0 do
      if Rs.needs_global rs net && Rs.global_route rs net = None then
        keyed := (P.half_perimeter place net, net) :: !keyed
    done;
    List.map snd (List.sort desc !keyed)
  in
  let scratch_ud rs ch =
    let keyed = ref [] in
    for net = Nl.n_nets (Rs.netlist rs) - 1 downto 0 do
      if List.mem ch (Rs.missing_channels rs net) then
        keyed := (I.length (List.assoc ch (Rs.h_demands rs net)), net) :: !keyed
    done;
    List.map snd (List.sort desc !keyed)
  in
  let check st =
    let rs = Ops.route_state st in
    match P.check_caches (Rs.place rs) with
    | Error e -> Error ("geom memo cache: " ^ e)
    | Ok () -> (
      match Rs.check rs with
      | Error e -> Error ("route state: " ^ e)
      | Ok () ->
        if Rs.u_g rs <> scratch_ug rs then
          Error "u_g differs from scratch recomputation"
        else begin
          let bad = ref None in
          for net = 0 to Nl.n_nets (Rs.netlist rs) - 1 do
            List.iter
              (fun ch ->
                if !bad = None && Rs.u_d rs ch <> scratch_ud rs ch then
                  bad := Some ch)
              (Rs.missing_channels rs net)
          done;
          match !bad with
          | Some ch ->
            Error (Printf.sprintf "u_d channel %d differs from scratch recomputation" ch)
          | None -> Ok ()
        end)
  in
  let base = Ops.spec ~n_cells:40 ~tracks:12 () in
  let spec = { base with Prop.name = "dense state matches scratch"; check } in
  match Prop.run ~seeds:[ 5; 6; 7 ] ~n_ops:50 spec with
  | Ok () -> ()
  | Error f -> Alcotest.fail (Prop.failure_to_string spec f)

let test_undo_roundtrip_deterministic () =
  let st = Ops.make ~n_cells:40 ~tracks:12 ~seed:11 () in
  check_findings "fresh state" (Audit.run_all (Ops.route_state st));
  List.iter (Ops.apply st)
    [
      Ops.Begin;
      Ops.Rip_cell 5;
      Ops.Route_pass;
      Ops.Unroute 7;
      Ops.Route_net 3;
      Ops.Pinmap_move (9, 1);
      Ops.Swap (123, 4567);
      Ops.Rollback;
    ];
  match Ops.check st with
  | Ok () -> ()
  | Error e -> Alcotest.failf "undo round-trip violated: %s" e

(* --- mutation smoke tests: every auditor must detect its own fault --- *)

let routed_state seed =
  let st = Ops.make ~n_cells:40 ~tracks:14 ~seed () in
  let rs = Ops.route_state st in
  check_findings "pre-corruption state" (Audit.run_all rs);
  rs

let first_net p rs =
  let n = Nl.n_nets (Rs.netlist rs) in
  let rec go i = if i >= n then None else if p i then Some i else go (i + 1) in
  go 0

let test_mutation_d_flag () =
  let rs = routed_state 2 in
  match first_net (fun n -> Rs.routable rs n) rs with
  | None -> Alcotest.fail "no routable net"
  | Some net ->
    Rs.Debug.flip_d_flag rs net;
    expect_findings "flipped d_flag" "route" (Check.Route_audit.run rs)

let test_mutation_d_total () =
  let rs = routed_state 3 in
  Rs.Debug.bump_d_total rs 1;
  expect_findings "bumped d_total" "route" (Check.Route_audit.run rs)

let test_mutation_in_ug () =
  let rs = routed_state 4 in
  match first_net (fun n -> Rs.routable rs n) rs with
  | None -> Alcotest.fail "no routable net"
  | Some net ->
    Rs.Debug.flip_in_ug_flag rs net;
    expect_findings "flipped in_ug" "route" (Check.Route_audit.run rs)

let test_mutation_missing () =
  let rs = routed_state 5 in
  (* Rip everything so single-channel nets sit queued with a non-empty
     missing list, then drop one list on the floor. *)
  let j = J.create () in
  for net = 0 to Nl.n_nets (Rs.netlist rs) - 1 do
    Rs.rip_up rs j net
  done;
  J.commit j;
  check_findings "after mass rip-up" (Check.Route_audit.run rs);
  match first_net (fun n -> Rs.missing_channels rs n <> []) rs with
  | None -> Alcotest.fail "no net with queued detail demands"
  | Some net ->
    Rs.Debug.clear_missing rs net;
    expect_findings "cleared missing" "route" (Check.Route_audit.run rs)

let test_mutation_owner () =
  let rs = routed_state 6 in
  let arch = Rs.arch rs in
  (* Free one claimed horizontal segment behind the bookkeeping's back. *)
  let corrupted = ref false in
  (try
     for ch = 0 to arch.Arch.n_channels - 1 do
       for tr = 0 to arch.Arch.tracks - 1 do
         let segs = Arch.hsegments arch ~channel:ch ~track:tr in
         for s = 0 to Array.length segs - 1 do
           if Rs.hseg_owner rs ~channel:ch ~track:tr ~seg:s <> -1 then begin
             Rs.Debug.set_hseg_owner rs ~channel:ch ~track:tr ~seg:s (-1);
             corrupted := true;
             raise Exit
           end
         done
       done
     done
   with Exit -> ());
  Alcotest.(check bool) "found a claimed segment" true !corrupted;
  expect_findings "freed owned segment" "route" (Check.Route_audit.run rs)

let test_mutation_pad_off_perimeter () =
  let rs = routed_state 7 in
  let place = Rs.place rs in
  let nl = Rs.netlist rs in
  let arch = P.arch place in
  check_findings "pre-corruption placement" (Check.Place_audit.run place);
  let pad =
    let rec go c =
      if c >= Nl.n_cells nl then None
      else if Kind.is_io (Nl.cell nl c).Nl.kind then Some c
      else go (c + 1)
    in
    go 0
  in
  let interior =
    let found = ref None in
    for row = 0 to arch.Arch.rows - 1 do
      for col = 0 to arch.Arch.cols - 1 do
        if !found = None && not (Arch.is_perimeter arch ~row ~col) then
          found := Some { P.row; col }
      done
    done;
    !found
  in
  match (pad, interior) with
  | Some pad, Some interior ->
    (* swap_slots deliberately skips legality; this is the corruption. *)
    P.swap_slots place (P.slot_of place pad) interior;
    expect_findings "pad off perimeter" "place" (Check.Place_audit.run place)
  | _ -> Alcotest.fail "fabric too small to stage the corruption"

let test_mutation_stale_sta () =
  let st = Ops.make ~n_cells:40 ~tracks:14 ~seed:8 () in
  let rs = Ops.route_state st in
  let sta = Sta.create Spr_timing.Delay_model.default rs in
  check_findings "fresh sta" (Check.Sta_audit.run sta rs);
  (* Change the routing without telling the analyzer — the classic
     missed-invalidation bug. *)
  let j = J.create () in
  for net = 0 to Nl.n_nets (Rs.netlist rs) - 1 do
    Rs.rip_up rs j net
  done;
  J.commit j;
  expect_findings "stale arrivals" "sta" (Check.Sta_audit.run sta rs)

(* --- BLIF writer -> parser round trip --- *)

(* Both conversion directions preserve signal (net) names, so the
   isomorphism is keyed on them: for each net, its driver's shape and
   the multiset of sink descriptions must survive the trip. Sinks are
   described by the net they drive in turn (or "po" for output pads). *)
let net_signature nl =
  let sink_key (cell, pin) =
    let c = Nl.cell nl cell in
    let ident =
      match Nl.out_net nl cell with
      | Some out -> "drives:" ^ (Nl.net nl out).Nl.net_name
      | None -> "po"
    in
    Printf.sprintf "%s/%s/pin%d/fanin%d" ident (Kind.to_string c.Nl.kind) pin c.Nl.n_inputs
  in
  List.sort compare
    (Array.to_list
       (Array.map
          (fun net ->
            let driver = Nl.cell nl net.Nl.driver in
            ( net.Nl.net_name,
              Kind.to_string driver.Nl.kind,
              driver.Nl.n_inputs,
              List.sort compare (Array.to_list (Array.map sink_key net.Nl.sinks)) ))
          (Nl.nets nl)))

let levels_by_net nl =
  let lev = Levelize.run_exn nl in
  List.sort compare
    (Array.to_list
       (Array.map
          (fun net -> (net.Nl.net_name, lev.Levelize.levels.(net.Nl.driver)))
          (Nl.nets nl)))

let blif_roundtrip_seed seed =
  let nl = Gen.generate (Gen.default ~n_cells:60) ~seed in
  let text = Blif.to_string ~model_name:"rt" nl in
  match Blif.parse_string text with
  | Error e -> Alcotest.failf "seed %d: reparse failed: %s" seed e
  | Ok nl2 ->
    let c1 = Nl.counts nl and c2 = Nl.counts nl2 in
    if c1 <> c2 then Alcotest.failf "seed %d: cell counts differ after round trip" seed;
    if Nl.n_nets nl <> Nl.n_nets nl2 then
      Alcotest.failf "seed %d: net counts differ (%d vs %d)" seed (Nl.n_nets nl)
        (Nl.n_nets nl2);
    if net_signature nl <> net_signature nl2 then
      Alcotest.failf "seed %d: netlists not isomorphic after round trip" seed;
    if levels_by_net nl <> levels_by_net nl2 then
      Alcotest.failf "seed %d: levelization disagrees after round trip" seed;
    let text2 = Blif.to_string ~model_name:"rt" nl2 in
    if text <> text2 then Alcotest.failf "seed %d: serialization is not a fixpoint" seed

let test_blif_roundtrip () = List.iter blif_roundtrip_seed [ 1; 2; 3; 4; 5; 6 ]

(* --- seeded determinism of the whole tool --- *)

let quick_config ?(seed = 5) n =
  Tool.Config.(
    default |> with_seed seed
    |> with_anneal
         {
           (Engine.default_config ~n) with
           Engine.moves_per_temp = max 150 (2 * n);
           warmup_moves = 150;
           max_temperatures = 12;
         })

let test_run_deterministic_state () =
  let nl = Gen.generate (Gen.default ~n_cells:60) ~seed:9 in
  let arch = Arch.size_for ~tracks:20 nl in
  let cfg = quick_config (Nl.n_cells nl) in
  let a = Tool.best_result (Tool.run_exn ~config:cfg arch nl) in
  let b = Tool.best_result (Tool.run_exn ~config:cfg arch nl) in
  Alcotest.(check bool) "identical final cost (delay)" true
    (a.Tool.critical_delay = b.Tool.critical_delay);
  Alcotest.(check int) "identical G" a.Tool.g b.Tool.g;
  Alcotest.(check int) "identical D" a.Tool.d b.Tool.d;
  Alcotest.(check int) "identical move count" a.Tool.anneal_report.Engine.n_moves
    b.Tool.anneal_report.Engine.n_moves;
  (* Track usage: the full routing snapshot (segment ownership, routes,
     queues) must be byte-identical. *)
  Alcotest.(check bool) "identical track usage" true
    (Rs.snapshot a.Tool.route = Rs.snapshot b.Tool.route);
  Alcotest.(check (list int)) "identical critical path" (Sta.critical_path a.Tool.sta)
    (Sta.critical_path b.Tool.sta)

(* --- the tool under continuous audit --- *)

let test_tool_validated_200_cells () =
  let nl = Gen.generate (Gen.default ~n_cells:200) ~seed:3 in
  let arch = Arch.size_for ~tracks:24 nl in
  let cfg =
    Tool.Config.with_validate ~every:40 true (quick_config ~seed:3 (Nl.n_cells nl))
  in
  (* validate=true fail-fasts on any finding mid-anneal; reaching the
     result at all means every periodic audit passed. *)
  let r = Tool.best_result (Tool.run_exn ~config:cfg arch nl) in
  check_findings "final 200-cell layout" (Tool.audit_result r);
  Alcotest.(check bool) "made routing progress" true (r.Tool.d < Rs.n_routable r.Tool.route)

(* --- crash-fault injection: killed and resumed == never killed --- *)

module Crash = Spr_check.Crash
module V2 = Spr_core.Checkpoint.V2

let rec rmrf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rmrf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let outcome_of (p : Tool.fleet) =
  let r = Tool.best_result p in
  {
    Crash.o_layout = Rs.snapshot r.Tool.route;
    o_g = r.Tool.g;
    o_d = r.Tool.d;
    o_critical_delay = r.Tool.critical_delay;
  }

(* Small circuits and short schedules: every crash attempt replays the
   run up to three times. *)
let crash_preset ~n_cells ~tracks ~seed =
  let nl = Gen.generate (Gen.default ~n_cells) ~seed in
  let arch = Arch.size_for ~tracks nl in
  let config =
    Tool.Config.(
      default |> with_seed seed
      |> with_anneal
           {
             (Engine.default_config ~n:n_cells) with
             Engine.moves_per_temp = max 120 (2 * n_cells);
             warmup_moves = 120;
             max_temperatures = 8;
           })
  in
  (arch, nl, config)

let crash_runner ~name ~arch ~nl ~config =
  let dir = "crash-" ^ name in
  let ref_dir = dir ^ "-ref" in
  (* The reference also checkpoints, so both runs canonicalize their
     incremental timing state at the same temperature boundaries. *)
  let reference =
    lazy
      (rmrf ref_dir;
       outcome_of (Tool.run_exn ~config:(Tool.Config.with_run_dir ref_dir config) arch nl))
  in
  let resume_config = Tool.Config.with_run_dir dir config in
  let runner =
    {
      Crash.reference = (fun () -> Lazy.force reference);
      crashed =
        (fun ~kill_after ->
          let p =
            Tool.run_exn
              ~config:
                Tool.Config.(
                  config |> with_run_dir dir |> with_final_checkpoint false
                  |> with_stop_after_accepted kill_after)
              arch nl
          in
          (Tool.best_result p).Tool.status <> Tool.Completed);
      resume =
        (fun () ->
          (* A crash before the first snapshot existed resumes as a
             fresh start, which must still match by determinism. *)
          match Tool.run ~config:resume_config ~resume_dir:dir arch nl with
          | Ok p -> Ok (outcome_of p)
          | Error e -> Error (Tool.error_to_string e));
      reset = (fun () -> rmrf dir);
    }
  in
  ( runner,
    fun () ->
      rmrf dir;
      rmrf ref_dir )

let test_crash_equivalence () =
  let presets =
    [ ("p40", crash_preset ~n_cells:40 ~tracks:16); ("p56", crash_preset ~n_cells:56 ~tracks:18) ]
  in
  List.iter
    (fun (pname, preset) ->
      List.iter
        (fun seed ->
          let arch, nl, config = preset ~seed in
          let name = Printf.sprintf "%s-s%d" pname seed in
          let runner, cleanup = crash_runner ~name ~arch ~nl ~config in
          let rng = Spr_util.Rng.create ((seed * 7) + 1) in
          let result = Crash.check_equivalence ~attempts:1 ~rng ~max_kill:250 runner in
          cleanup ();
          match result with
          | Ok () -> ()
          | Error f -> Alcotest.failf "preset %s: %s" name (Crash.failure_to_string f))
        [ 1; 2; 3 ])
    presets

(* A portfolio fleet interrupted mid-run and resumed from its run
   directory must end exactly where the uninterrupted fleet ends:
   same per-replica layouts, same winner, same exchange history. *)
let test_portfolio_kill_resume () =
  List.iter
    (fun (policy_name, exchange) ->
      let arch, nl, base = crash_preset ~n_cells:40 ~tracks:16 ~seed:2 in
      let config = Tool.Config.with_replicas ~exchange 3 base in
      let ref_dir = "crash-fleet-" ^ policy_name ^ "-ref" in
      let dir = "crash-fleet-" ^ policy_name in
      rmrf ref_dir;
      rmrf dir;
      let reference =
        Tool.run_exn ~config:(Tool.Config.with_run_dir ref_dir config) arch nl
      in
      let run_config = Tool.Config.with_run_dir dir config in
      let stopped =
        Tool.run_exn
          ~config:(Tool.Config.with_stop_after_accepted 60 run_config)
          arch nl
      in
      let interrupted =
        Array.exists
          (fun (r : Tool.result) -> r.Tool.status <> Tool.Completed)
          stopped.Tool.p_results
      in
      if not interrupted then Alcotest.failf "%s: fleet was not interrupted" policy_name;
      let resumed = Tool.run_exn ~config:run_config ~resume_dir:dir arch nl in
      Array.iteri
        (fun k (r : Tool.result) ->
          (match r.Tool.status with
          | Tool.Completed -> ()
          | Tool.Interrupted _ ->
            Alcotest.failf "%s: resumed replica %d did not complete" policy_name k);
          if Rs.snapshot r.Tool.route
             <> Rs.snapshot reference.Tool.p_results.(k).Tool.route
          then Alcotest.failf "%s: replica %d diverged after kill+resume" policy_name k)
        resumed.Tool.p_results;
      Alcotest.(check int) (policy_name ^ ": same winner") reference.Tool.p_best_replica
        resumed.Tool.p_best_replica;
      Alcotest.(check bool) (policy_name ^ ": same exchange history") true
        (reference.Tool.p_rounds = resumed.Tool.p_rounds);
      rmrf ref_dir;
      rmrf dir)
    [ ("indep", Spr_anneal.Portfolio.Independent); ("best2", Spr_anneal.Portfolio.Best_exchange 2) ]

(* --- trace determinism and schema round-trip --- *)

module Trace = Spr_obs.Trace
module Report = Spr_obs.Report

(* Masked traces (every wall-clock-derived field zeroed) from a fixed
   seed must be bit-identical as strings across repeated runs. *)
let masked_lines events =
  String.concat "\n" (List.map (fun e -> Trace.encode_line (Trace.mask_times e)) events)

let trace_preset seed =
  let nl = Gen.generate (Gen.default ~n_cells:48) ~seed in
  let arch = Arch.size_for ~tracks:18 nl in
  let config = Tool.Config.with_trace_recording true (quick_config ~seed (Nl.n_cells nl)) in
  (arch, nl, config)

let test_trace_deterministic () =
  let arch, nl, config = trace_preset 12 in
  let run () =
    let r = Tool.run_exn ~config arch nl in
    masked_lines (Tool.trace_events ~config nl r)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "non-trivial trace" true (String.length a > 0);
  Alcotest.(check bool) "masked traces bit-identical across runs" true (a = b)

let test_trace_portfolio_deterministic () =
  let arch, nl, config = trace_preset 14 in
  let config = Tool.Config.with_replicas ~exchange:Spr_anneal.Portfolio.Independent 2 config in
  let run () =
    let p = Tool.run_exn ~config arch nl in
    masked_lines (Tool.trace_events ~config nl p)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "masked K=2 traces bit-identical across runs" true (a = b);
  (* The merged stream carries both replicas and validates structurally. *)
  let p = Tool.run_exn ~config arch nl in
  let events = Tool.trace_events ~config nl p in
  (match Trace.validate events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merged trace invalid: %s" e);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d present in merged trace" k)
        true
        (List.exists (fun e -> e.Trace.ev_replica = k) events))
    [ 0; 1 ]

let test_trace_roundtrip () =
  let arch, nl, config = trace_preset 15 in
  let p = Tool.run_exn ~config arch nl in
  let events = Tool.trace_events ~config nl p in
  (match Trace.validate events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace invalid: %s" e);
  (* encode -> decode -> re-encode is bit-identical, unmasked. *)
  List.iter
    (fun e ->
      let line = Trace.encode_line e in
      match Trace.decode_line line with
      | Error err -> Alcotest.failf "decode failed: %s\n%s" err line
      | Ok e2 ->
        Alcotest.(check string) "re-encoded line identical" line (Trace.encode_line e2))
    events;
  (* The report round-trips through its JSON twin the same way. *)
  let j = Report.to_json p.Tool.p_report in
  match Report.of_json j with
  | Error e -> Alcotest.failf "report decode failed: %s" e
  | Ok rep2 ->
    Alcotest.(check string) "re-encoded report identical"
      (Spr_obs.Json.to_string j)
      (Spr_obs.Json.to_string (Report.to_json rep2))

let test_graceful_stop_resume () =
  let arch, nl, config = crash_preset ~n_cells:40 ~tracks:16 ~seed:4 in
  let dir = "crash-graceful" in
  let ref_dir = dir ^ "-ref" in
  rmrf dir;
  rmrf ref_dir;
  let reference =
    outcome_of (Tool.run_exn ~config:(Tool.Config.with_run_dir ref_dir config) arch nl)
  in
  (* 171 is deliberately not a multiple of the batch size, so the stop
     (and its final checkpoint) lands mid-batch. *)
  let stopped =
    Tool.run_exn
      ~config:Tool.Config.(config |> with_run_dir dir |> with_max_moves 171)
      arch nl
  in
  (match (Tool.best_result stopped).Tool.status with
  | Tool.Interrupted Tool.Move_budget -> ()
  | _ -> Alcotest.fail "expected a move-budget interruption");
  match V2.load_latest nl ~dir with
  | Error e -> Alcotest.failf "no resumable snapshot after graceful stop: %s" e
  | Ok _ -> (
    match Tool.run ~config:(Tool.Config.with_run_dir dir config) ~resume_dir:dir arch nl with
    | Error e -> Alcotest.fail (Tool.error_to_string e)
    | Ok resumed ->
      (match (Tool.best_result resumed).Tool.status with
      | Tool.Completed -> ()
      | Tool.Interrupted _ -> Alcotest.fail "resumed run did not complete");
      (match Crash.compare_outcomes ~reference (outcome_of resumed) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "graceful stop + resume diverged: %s" e);
      rmrf dir;
      rmrf ref_dir)

let () =
  Alcotest.run "spr_check"
    [
      ( "prop",
        [
          Alcotest.test_case "random op sequences pass the audits" `Slow
            test_prop_op_sequences;
          Alcotest.test_case "shrinker minimizes a failing sequence" `Quick
            test_prop_shrinker_reports;
          Alcotest.test_case "dense state matches scratch recomputation" `Slow
            test_dense_state_matches_scratch;
          Alcotest.test_case "undo round-trip (deterministic)" `Quick
            test_undo_roundtrip_deterministic;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "route audit sees flipped d_flag" `Quick test_mutation_d_flag;
          Alcotest.test_case "route audit sees bumped d_total" `Quick test_mutation_d_total;
          Alcotest.test_case "route audit sees flipped in_ug" `Quick test_mutation_in_ug;
          Alcotest.test_case "route audit sees dropped missing list" `Quick
            test_mutation_missing;
          Alcotest.test_case "route audit sees corrupted owner array" `Quick
            test_mutation_owner;
          Alcotest.test_case "place audit sees pad off perimeter" `Quick
            test_mutation_pad_off_perimeter;
          Alcotest.test_case "sta audit sees missed invalidation" `Quick
            test_mutation_stale_sta;
        ] );
      ("blif", [ Alcotest.test_case "writer -> parser round trip" `Quick test_blif_roundtrip ]);
      ( "determinism",
        [ Alcotest.test_case "same seed, identical layout" `Slow test_run_deterministic_state ]
      );
      ( "tool",
        [
          Alcotest.test_case "200-cell run under continuous audit" `Slow
            test_tool_validated_200_cells;
        ] );
      ( "obs",
        [
          Alcotest.test_case "fixed-seed masked trace is bit-identical" `Slow
            test_trace_deterministic;
          Alcotest.test_case "K=2 merged trace deterministic and valid" `Slow
            test_trace_portfolio_deterministic;
          Alcotest.test_case "trace encode -> decode -> re-encode fixpoint" `Slow
            test_trace_roundtrip;
        ] );
      ( "crash",
        [
          Alcotest.test_case "killed and resumed == never killed" `Slow
            test_crash_equivalence;
          Alcotest.test_case "graceful mid-batch stop resumes identically" `Slow
            test_graceful_stop_resume;
          Alcotest.test_case "killed portfolio fleet resumes identically" `Slow
            test_portfolio_kill_resume;
        ] );
    ]
