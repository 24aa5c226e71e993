module Tool = Spr_core.Tool
module Dynamics = Spr_core.Dynamics
module Profile = Spr_core.Profile
module Rs = Spr_route.Route_state
module Arch = Spr_arch.Arch
module Nl = Spr_netlist.Netlist
module Gen = Spr_netlist.Generator
module Engine = Spr_anneal.Engine

(* Small, quick anneal profile so the suite stays fast. *)
let quick_config ?(seed = 1) n =
  Tool.Config.(
    default |> with_seed seed |> with_validate true
    |> with_anneal
         {
           (Engine.default_config ~n) with
           Engine.moves_per_temp = max 200 (3 * n);
           warmup_moves = 200;
           max_temperatures = 25;
         })

(* The best replica of a fleet; a fleet of one is the plain anneal. *)
let run1 ~config arch nl = Tool.best_result (Tool.run_exn ~config arch nl)

let small_case ?(n_cells = 60) ?(seed = 7) ?(tracks = 20) () =
  let nl = Gen.generate (Gen.default ~n_cells) ~seed in
  let arch = Arch.size_for ~tracks nl in
  (arch, nl)

let test_run_routes_small_circuit () =
  let arch, nl = small_case () in
  let r = run1 ~config:(quick_config (Nl.n_cells nl)) arch nl in
  Alcotest.(check bool) "fully routed" true r.Tool.fully_routed;
  Alcotest.(check int) "g zero" 0 r.Tool.g;
  Alcotest.(check int) "d zero" 0 r.Tool.d;
  Alcotest.(check bool) "positive delay" true (r.Tool.critical_delay > 0.0);
  (* the result state is internally consistent (validate=true already
     checked during the run; check the final state again explicitly) *)
  (match Rs.check r.Tool.route with
  | Ok () -> ()
  | Error e -> Alcotest.failf "final route state invalid: %s" e);
  match Spr_layout.Placement.check r.Tool.place with
  | Ok () -> ()
  | Error e -> Alcotest.failf "final placement invalid: %s" e

let test_run_deterministic () =
  let arch, nl = small_case () in
  let cfg = quick_config (Nl.n_cells nl) in
  let a = run1 ~config:cfg arch nl in
  let b = run1 ~config:cfg arch nl in
  Alcotest.(check (float 1e-9)) "same final delay" a.Tool.critical_delay b.Tool.critical_delay;
  Alcotest.(check int) "same move count" a.Tool.anneal_report.Engine.n_moves
    b.Tool.anneal_report.Engine.n_moves

let test_run_seed_matters () =
  let arch, nl = small_case () in
  let a = run1 ~config:(quick_config ~seed:1 (Nl.n_cells nl)) arch nl in
  let b = run1 ~config:(quick_config ~seed:2 (Nl.n_cells nl)) arch nl in
  (* different seeds explore different layouts; delays should differ *)
  Alcotest.(check bool) "different outcomes" true
    (Float.abs (a.Tool.critical_delay -. b.Tool.critical_delay) > 1e-9)

let test_dynamics_recorded () =
  let arch, nl = small_case () in
  let r = run1 ~config:(quick_config (Nl.n_cells nl)) arch nl in
  let samples = r.Tool.dynamics in
  Alcotest.(check bool) "samples recorded" true (List.length samples >= 3);
  List.iter
    (fun s ->
      Alcotest.(check bool) "cell pct in range" true
        (s.Dynamics.pct_cells_perturbed >= 0.0 && s.Dynamics.pct_cells_perturbed <= 100.0);
      Alcotest.(check bool) "unrouted pct >= globally-unrouted pct" true
        (s.Dynamics.pct_nets_unrouted >= s.Dynamics.pct_nets_globally_unrouted -. 1e-9))
    samples;
  (* the last sample should be fully routed for this easy fabric *)
  let last = List.nth samples (List.length samples - 1) in
  Alcotest.(check (float 1e-6)) "ends fully routed" 0.0 last.Dynamics.pct_nets_unrouted;
  (* activity decays: the first cooling sample perturbs more cells than
     the last *)
  match samples with
  | first :: _ ->
    Alcotest.(check bool) "placement activity decays" true
      (first.Dynamics.pct_cells_perturbed >= last.Dynamics.pct_cells_perturbed)
  | [] -> Alcotest.fail "no samples"

let test_cost_improves () =
  let arch, nl = small_case () in
  let r = run1 ~config:(quick_config (Nl.n_cells nl)) arch nl in
  Alcotest.(check bool) "final cost below initial" true
    (r.Tool.anneal_report.Engine.final_cost < r.Tool.anneal_report.Engine.initial_cost)

let test_pinmap_moves_can_be_disabled () =
  let arch, nl = small_case () in
  let cfg = Tool.Config.with_pinmap_moves false (quick_config (Nl.n_cells nl)) in
  let r = run1 ~config:cfg arch nl in
  Alcotest.(check bool) "still completes" true (r.Tool.critical_delay > 0.0);
  (* all pinmaps stay at palette entry 0 *)
  for c = 0 to Nl.n_cells nl - 1 do
    Alcotest.(check int) "pinmap untouched" 0 (Spr_layout.Placement.pinmap_index r.Tool.place c)
  done

let test_timing_driven_routing () =
  let arch, nl = small_case () in
  let cfg = Tool.Config.with_timing_driven_routing true (quick_config (Nl.n_cells nl)) in
  let r = run1 ~config:cfg arch nl in
  Alcotest.(check bool) "routes with criticality ordering" true r.Tool.fully_routed;
  (match Rs.check r.Tool.route with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid state: %s" e)

let test_profile_coverage () =
  let arch, nl = small_case () in
  let r = run1 ~config:(quick_config (Nl.n_cells nl)) arch nl in
  let p = r.Tool.profile in
  let module Profile = Spr_core.Profile in
  Alcotest.(check bool) "moves were profiled" true
    (Profile.t_moves p = r.Tool.anneal_report.Engine.n_moves);
  Alcotest.(check bool) "decisions were profiled" true
    (Profile.t_accepts p + Profile.t_rejects p = Profile.t_moves p);
  Alcotest.(check bool) "total clock ran" true (Profile.total_seconds p > 0.0);
  (* the acceptance bound from the issue: phase brackets must account
     for the bracketed move time to within 5% *)
  let cov = Profile.coverage p in
  Alcotest.(check bool)
    (Printf.sprintf "phase sum within 5%% of move total (coverage %.4f)" cov)
    true
    (cov >= 0.95 && cov <= 1.0 +. 1e-9);
  (* every phase was entered; Decide fires once per move *)
  List.iter
    (fun ph ->
      Alcotest.(check bool)
        (Printf.sprintf "phase %s entered" (Profile.phase_name ph))
        true
        (Profile.phase_calls p ph > 0))
    Profile.phases;
  Alcotest.(check int) "one decision per move" (Profile.t_moves p)
    (Profile.phase_calls p Profile.Decide);
  (* the dynamics trace carries the per-temperature phase split *)
  List.iter
    (fun s ->
      Alcotest.(check int) "sample has per-phase times" Profile.n_phases
        (Array.length s.Dynamics.phase_seconds);
      Array.iter
        (fun dt -> Alcotest.(check bool) "phase time non-negative" true (dt >= 0.0))
        s.Dynamics.phase_seconds)
    r.Tool.dynamics

let test_run_rejects_cycles () =
  let b = Nl.Builder.create () in
  let a = Nl.Builder.add_cell b ~name:"a" ~kind:Spr_netlist.Cell_kind.Comb ~n_inputs:1 in
  let c = Nl.Builder.add_cell b ~name:"c" ~kind:Spr_netlist.Cell_kind.Comb ~n_inputs:1 in
  let na = Nl.Builder.add_net b ~name:"na" ~driver:a in
  let nc = Nl.Builder.add_net b ~name:"nc" ~driver:c in
  Nl.Builder.add_sink b ~net:na ~cell:c ~pin:0;
  Nl.Builder.add_sink b ~net:nc ~cell:a ~pin:0;
  let nl = Nl.Builder.finish_exn b in
  let arch = Arch.create ~rows:2 ~cols:4 ~tracks:4 () in
  match Tool.run arch nl with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "combinational cycle accepted"

let test_run_rejects_overflow () =
  let nl = Gen.generate (Gen.default ~n_cells:100) ~seed:1 in
  let arch = Arch.create ~rows:2 ~cols:5 ~tracks:4 () in
  match Tool.run arch nl with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overfull fabric accepted"

(* --- configuration validation --- *)

let has_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let expect_invalid_config label config =
  let arch, nl = small_case () in
  match Tool.run ~config arch nl with
  | Error (Tool.Invalid_config _) -> ()
  | Error e -> Alcotest.failf "%s: wrong error %s" label (Tool.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: accepted" label

let test_config_validation () =
  let base = quick_config 60 in
  expect_invalid_config "pinmap prob 1.5" (Tool.Config.with_pinmap_moves ~prob:1.5 true base);
  expect_invalid_config "pinmap prob -0.1"
    (Tool.Config.with_pinmap_moves ~prob:(-0.1) true base);
  expect_invalid_config "pinmap prob nan" (Tool.Config.with_pinmap_moves ~prob:Float.nan true base);
  expect_invalid_config "swap tries 0" (Tool.Config.with_max_swap_tries 0 base);
  expect_invalid_config "negative weight"
    (Tool.Config.with_weights { base.Tool.Config.weights with Tool.Config.g_per_net = -1.0 } base);
  expect_invalid_config "time budget 0" (Tool.Config.with_time_budget 0.0 base);
  expect_invalid_config "negative moves" (Tool.Config.with_max_moves (-1) base);
  expect_invalid_config "stop after 0" (Tool.Config.with_stop_after_accepted 0 base);
  expect_invalid_config "0 replicas" (Tool.Config.with_replicas 0 base);
  expect_invalid_config "negative stream" (Tool.Config.with_stream (-1) base);
  expect_invalid_config "exchange period 0"
    (Tool.Config.with_replicas ~exchange:(Spr_anneal.Portfolio.Best_exchange 0) 2 base);
  expect_invalid_config "negative race margin" (Tool.Config.with_race_margin (-1.0) base);
  expect_invalid_config "race margin nan" (Tool.Config.with_race_margin Float.nan base);
  expect_invalid_config "race every 0" (Tool.Config.with_race_every 0 base);
  expect_invalid_config "negative race warmup" (Tool.Config.with_race_warmup (-1) base);
  expect_invalid_config "racing replaces the exchange barrier"
    Tool.Config.(
      base
      |> with_replicas ~exchange:(Spr_anneal.Portfolio.Best_exchange 2) 2
      |> with_scheduler_kind `Racing);
  (* scheduler spelling vocabulary round-trips *)
  List.iter
    (fun kind ->
      let s = Tool.Config.scheduler_to_string kind in
      match Tool.Config.scheduler_of_string s with
      | Ok k when k = kind -> ()
      | _ -> Alcotest.failf "scheduler spelling %s" s)
    [ `Barrier; `Racing ];
  List.iter
    (fun s ->
      match Tool.Config.scheduler_of_string s with
      | Ok _ -> Alcotest.failf "accepted scheduler %s" s
      | Error e ->
        Alcotest.(check bool) ("error names the valid schedulers: " ^ e) true
          (has_substring ~sub:"barrier" e && has_substring ~sub:"racing" e))
    [ "greedy"; String.concat ":" [ "racing"; "free" ] ];
  (* every problem is named in one structured message *)
  (match
     Tool.Config.validated
       Tool.Config.(base |> with_max_swap_tries 0 |> with_pinmap_moves ~prob:2.0 true)
   with
  | Ok _ -> Alcotest.fail "invalid config validated"
  | Error msg ->
    let has needle =
      let nl = String.length needle and ml = String.length msg in
      let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "mentions pinmap prob" true (has "pinmap_move_prob");
    Alcotest.(check bool) "mentions swap tries" true (has "max_swap_tries"));
  (* clamp-style fields are normalized, not rejected *)
  match Tool.Config.validated (Tool.Config.with_validate ~every:0 true base) with
  | Error e -> Alcotest.failf "clamped field rejected: %s" e
  | Ok c -> Alcotest.(check int) "validate_every clamped" 1 c.Tool.Config.validation.Tool.Config.validate_every

(* --- parallel portfolio --- *)

let portfolio_config ?(seed = 1) ?(exchange = Spr_anneal.Portfolio.Independent) ~replicas n =
  Tool.Config.(quick_config ~seed n |> with_replicas ~exchange replicas)

let check_same_result label (a : Tool.result) (b : Tool.result) =
  Alcotest.(check bool) (label ^ ": identical layout") true
    (Rs.snapshot a.Tool.route = Rs.snapshot b.Tool.route);
  Alcotest.(check (float 1e-12)) (label ^ ": identical delay") a.Tool.critical_delay
    b.Tool.critical_delay;
  Alcotest.(check int) (label ^ ": identical moves") a.Tool.anneal_report.Engine.n_moves
    b.Tool.anneal_report.Engine.n_moves

(* Under [Independent] exchange, replica k is exactly a one-replica run
   on RNG stream k — so the fleet winner is reproducible standalone. *)
let test_portfolio_winner_reproducible () =
  let arch, nl = small_case () in
  let n = Nl.n_cells nl in
  let p = Tool.run_exn ~config:(portfolio_config ~replicas:3 n) arch nl in
  Alcotest.(check int) "three results" 3 (Array.length p.Tool.p_results);
  let k = p.Tool.p_best_replica in
  let standalone =
    run1 ~config:(Tool.Config.with_stream k (quick_config n)) arch nl
  in
  check_same_result "winner" (Tool.best_result p) standalone;
  (* replicas genuinely explored different trajectories *)
  let snap i = Rs.snapshot p.Tool.p_results.(i).Tool.route in
  Alcotest.(check bool) "replicas 0/1 differ" false (snap 0 = snap 1);
  (* merged profile sums the fleet's move counts *)
  let total =
    Array.fold_left (fun acc (r : Tool.result) -> acc + Profile.t_moves r.Tool.profile) 0
      p.Tool.p_results
  in
  Alcotest.(check int) "profile merged" total (Profile.t_moves p.Tool.p_profile)

(* [Best_exchange] trajectories depend on broadcast layouts, so the
   whole fleet — winner, exchanges, every replica's layout — must still
   be a pure function of the seed, independent of domain scheduling. *)
let test_portfolio_exchange_deterministic () =
  let arch, nl = small_case () in
  let n = Nl.n_cells nl in
  let config =
    portfolio_config ~seed:2 ~exchange:(Spr_anneal.Portfolio.Best_exchange 3) ~replicas:3 n
  in
  let a = Tool.run_exn ~config arch nl in
  let b = Tool.run_exn ~config arch nl in
  Alcotest.(check int) "same winner" a.Tool.p_best_replica b.Tool.p_best_replica;
  Alcotest.(check bool) "same exchange history" true (a.Tool.p_rounds = b.Tool.p_rounds);
  Alcotest.(check bool) "exchange rounds recorded, none kill" true
    (a.Tool.p_rounds <> []
    && List.for_all (fun (r : Spr_anneal.Scheduler.round_record) -> r.kills = []) a.Tool.p_rounds);
  Array.iteri
    (fun i (ra : Tool.result) ->
      check_same_result (Printf.sprintf "replica %d" i) ra b.Tool.p_results.(i))
    a.Tool.p_results;
  (* the audit subsystem accepts every replica's final state *)
  Array.iter
    (fun (r : Tool.result) ->
      match Tool.audit_result r with
      | [] -> ()
      | findings -> Alcotest.failf "audit: %s" (Spr_check.Finding.summarize findings))
    a.Tool.p_results

(* [Sys.time] is process-wide, so the fleet's CPU is one delta around
   the whole fleet: K domains cannot use more than K x wall of it. *)
let test_portfolio_cpu_within_wall () =
  let arch, nl = small_case () in
  let k = 2 in
  let p = Tool.run_exn ~config:(portfolio_config ~replicas:k (Nl.n_cells nl)) arch nl in
  let r = p.Tool.p_report in
  let bound = (1.1 *. float_of_int k *. r.Spr_obs.Report.r_wall_seconds) +. 0.05 in
  if r.Spr_obs.Report.r_cpu_seconds > bound then
    Alcotest.failf "fleet cpu %.3f s exceeds %d x wall %.3f s" r.Spr_obs.Report.r_cpu_seconds k
      r.Spr_obs.Report.r_wall_seconds

(* A fleet spreads one replica's stop through its own flag, so the
   process-wide interrupt flag stays down and the next run in the same
   process anneals normally. *)
let test_fleet_stop_does_not_leak () =
  let arch, nl = small_case () in
  let n = Nl.n_cells nl in
  let stopped =
    Tool.run_exn
      ~config:(Tool.Config.with_stop_after_accepted 50 (portfolio_config ~replicas:2 n))
      arch nl
  in
  Alcotest.(check bool) "every replica stopped" true
    (Array.for_all
       (fun (r : Tool.result) -> r.Tool.status = Tool.Interrupted Tool.Interrupt)
       stopped.Tool.p_results);
  Alcotest.(check bool) "interrupt flag still down" false (Tool.interrupt_requested ());
  let next = run1 ~config:(quick_config n) arch nl in
  Alcotest.(check bool) "next run completes" true (next.Tool.status = Tool.Completed);
  Alcotest.(check bool) "next run anneals" true (next.Tool.anneal_report.Engine.n_moves > 100)

(* A fleet of one reports wall-clock seconds as its wall time: a cancel
   poll that sleeps between moves shows up in wall time, not in CPU. *)
let test_wall_seconds_are_wall () =
  let arch, nl = small_case () in
  let slept = ref 0.0 in
  let poll () =
    let t0 = Unix.gettimeofday () in
    Unix.sleepf 0.002;
    slept := !slept +. (Unix.gettimeofday () -. t0);
    false
  in
  let config =
    Tool.Config.(
      quick_config (Nl.n_cells nl) |> with_validate false |> with_max_moves 150
      |> with_cancel_poll poll)
  in
  let r = (Tool.run_exn ~config arch nl).Tool.p_report in
  if r.Spr_obs.Report.r_wall_seconds < !slept then
    Alcotest.failf "wall %.3f s is below the %.3f s the poll slept" r.Spr_obs.Report.r_wall_seconds
      !slept;
  if r.Spr_obs.Report.r_cpu_seconds >= !slept then
    Alcotest.failf "cpu %.3f s counts the %.3f s the poll slept" r.Spr_obs.Report.r_cpu_seconds
      !slept

(* --- racing scheduler --- *)

let rec rmrf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rmrf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Aggressive racing parameters (zero margin, short warmup) so the
   quick anneal reliably produces kills to exercise. *)
let racing_config ?(seed = 1) ~replicas n =
  Tool.Config.(
    quick_config ~seed n |> with_replicas replicas |> with_scheduler_kind `Racing
    |> with_race_margin 0.0 |> with_race_warmup 2 |> with_race_every 2)

(* Racing decisions come from masked-trace quantities at rendezvous
   rounds, so the whole fleet — winner, kills, every replica's layout —
   must be a pure function of the seed, like the exchange barrier. *)
let test_portfolio_racing_deterministic () =
  let arch, nl = small_case () in
  let n = Nl.n_cells nl in
  let config = racing_config ~replicas:3 n in
  let a = Tool.run_exn ~config arch nl in
  let b = Tool.run_exn ~config arch nl in
  Alcotest.(check bool) "racing killed something" true (a.Tool.p_rounds <> []);
  Alcotest.(check int) "same winner" a.Tool.p_best_replica b.Tool.p_best_replica;
  Alcotest.(check bool) "same decision rounds" true (a.Tool.p_rounds = b.Tool.p_rounds);
  Alcotest.(check bool) "only killing rounds recorded under racing" true
    (List.for_all (fun (r : Spr_anneal.Scheduler.round_record) -> r.kills <> []) a.Tool.p_rounds);
  Array.iteri
    (fun i (ra : Tool.result) ->
      check_same_result (Printf.sprintf "replica %d" i) ra b.Tool.p_results.(i))
    a.Tool.p_results

(* Interrupting a racing fleet mid-run and resuming it must land on the
   uninterrupted run, bit for bit: snapshots restore each replica's
   trajectory and [sched-*.rec] records replay the killing rounds. *)
let test_portfolio_racing_resume_matches () =
  let arch, nl = small_case () in
  let n = Nl.n_cells nl in
  let dir_full = "core-racing-full" and dir_cut = "core-racing-cut" in
  rmrf dir_full;
  rmrf dir_cut;
  let with_dir dir c = Tool.Config.with_run_dir ~snapshot_every:1 dir c in
  let base = racing_config ~replicas:2 n in
  let full = Tool.run_exn ~config:(with_dir dir_full base) arch nl in
  Alcotest.(check bool) "baseline killed something" true (full.Tool.p_rounds <> []);
  let moves0 = full.Tool.p_results.(0).Tool.anneal_report.Engine.n_moves in
  let cut =
    Tool.run_exn
      ~config:(with_dir dir_cut (Tool.Config.with_max_moves (moves0 / 2) base))
      arch nl
  in
  Alcotest.(check bool) "budget actually interrupted the fleet" true
    (Array.exists
       (fun (r : Tool.result) -> r.Tool.status <> Tool.Completed)
       cut.Tool.p_results);
  let resumed =
    Tool.run_exn ~config:(with_dir dir_cut base) ~resume_dir:dir_cut arch nl
  in
  Alcotest.(check int) "same winner" full.Tool.p_best_replica resumed.Tool.p_best_replica;
  Alcotest.(check bool) "same decision rounds" true (full.Tool.p_rounds = resumed.Tool.p_rounds);
  Array.iteri
    (fun i (ra : Tool.result) ->
      check_same_result (Printf.sprintf "replica %d" i) ra resumed.Tool.p_results.(i))
    full.Tool.p_results;
  rmrf dir_full;
  rmrf dir_cut

let test_dynamics_module () =
  let d = Dynamics.create ~n_cells:10 in
  Dynamics.note_accepted_cells d [ 1; 2; 2; 3 ];
  Dynamics.flush d ~temp_index:1 ~temperature:5.0 ~g_frac:0.5 ~d_frac:0.75 ~acceptance:0.9
    ~cost:1.0 ~critical_delay:10.0;
  Dynamics.note_accepted_cells d [ 4 ];
  Dynamics.flush d ~temp_index:2 ~temperature:2.5 ~g_frac:0.0 ~d_frac:0.25 ~acceptance:0.5
    ~cost:0.5 ~critical_delay:9.0;
  match Dynamics.samples d with
  | [ s1; s2 ] ->
    Alcotest.(check (float 1e-9)) "3 distinct cells of 10" 30.0 s1.Dynamics.pct_cells_perturbed;
    Alcotest.(check (float 1e-9)) "reset between temps" 10.0 s2.Dynamics.pct_cells_perturbed;
    Alcotest.(check (float 1e-9)) "g pct scaled" 50.0 s1.Dynamics.pct_nets_globally_unrouted;
    Alcotest.(check (float 1e-9)) "d pct scaled" 25.0 s2.Dynamics.pct_nets_unrouted;
    Alcotest.(check int) "unprofiled flush leaves phase times empty" 0
      (Array.length s1.Dynamics.phase_seconds)
  | other -> Alcotest.failf "expected 2 samples, got %d" (List.length other)

let () =
  Alcotest.run "spr_core"
    [
      ( "tool",
        [
          Alcotest.test_case "routes a small circuit" `Slow test_run_routes_small_circuit;
          Alcotest.test_case "deterministic per seed" `Slow test_run_deterministic;
          Alcotest.test_case "seed changes outcome" `Slow test_run_seed_matters;
          Alcotest.test_case "cost improves" `Slow test_cost_improves;
          Alcotest.test_case "dynamics recorded" `Slow test_dynamics_recorded;
          Alcotest.test_case "pinmap moves can be disabled" `Slow test_pinmap_moves_can_be_disabled;
          Alcotest.test_case "timing-driven routing" `Slow test_timing_driven_routing;
          Alcotest.test_case "profile covers the move pipeline" `Slow test_profile_coverage;
          Alcotest.test_case "rejects comb cycles" `Quick test_run_rejects_cycles;
          Alcotest.test_case "rejects overfull fabric" `Quick test_run_rejects_overflow;
        ] );
      ( "config",
        [ Alcotest.test_case "smart constructor rejects nonsense" `Quick test_config_validation ] );
      ( "portfolio",
        [
          Alcotest.test_case "winner reproducible standalone" `Slow
            test_portfolio_winner_reproducible;
          Alcotest.test_case "best-exchange deterministic" `Slow
            test_portfolio_exchange_deterministic;
          Alcotest.test_case "fleet cpu within K x wall" `Slow test_portfolio_cpu_within_wall;
          Alcotest.test_case "a fleet's stop leaves the interrupt flag down" `Slow
            test_fleet_stop_does_not_leak;
          Alcotest.test_case "wall seconds are wall-clock time" `Slow test_wall_seconds_are_wall;
          Alcotest.test_case "racing deterministic" `Slow test_portfolio_racing_deterministic;
          Alcotest.test_case "racing kill+resume matches uninterrupted" `Slow
            test_portfolio_racing_resume_matches;
        ] );
      ("dynamics", [ Alcotest.test_case "bookkeeping" `Quick test_dynamics_module ]);
    ]
