(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Tables 1-2, Figures 6-7), the design-choice
   ablations from DESIGN.md, and Bechamel microbenchmarks of the core
   kernels.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- table1    -- one artifact
     SPR_BENCH_EFFORT=quick dune exec bench/main.exe

   See EXPERIMENTS.md for paper-vs-measured notes. *)

module E = Spr_experiments.Profiles

let effort_of_env default =
  match Sys.getenv_opt "SPR_BENCH_EFFORT" with
  | None -> default
  | Some s -> (
    match E.effort_of_string s with
    | Some e -> e
    | None ->
      Printf.eprintf "unknown SPR_BENCH_EFFORT %S (quick|standard|thorough)\n" s;
      default)

let section title =
  Printf.printf "\n==== %s ====\n%!" title

let table1 () =
  section "Table 1: timing improvement (simultaneous vs sequential)";
  let rows = Spr_experiments.Timing_table.run ~effort:(effort_of_env E.Standard) () in
  print_string (Spr_experiments.Timing_table.render rows);
  Printf.printf "paper reported improvements: s1 28%%, cse 16%%, ex1 23%%, bw 25%%, s1a 21%%\n%!"

let table2 () =
  section "Table 2: minimum tracks/channel for 100% wirability";
  let rows = Spr_experiments.Wirability_table.run ~effort:(effort_of_env E.Quick) () in
  print_string (Spr_experiments.Wirability_table.render rows);
  Printf.printf
    "paper reported (seq/sim): s1 23/18, cse 22/17, ex1 26/21, bw 15/10, s1a 22/17\n%!"

let fig6 () =
  section "Figure 6: annealing dynamics";
  let t = Spr_experiments.Dynamics_fig.run ~effort:(effort_of_env E.Standard) () in
  print_string (Spr_experiments.Dynamics_fig.render t);
  Printf.printf "qualitative shape of Figure 6 holds: %b\n%!"
    (Spr_experiments.Dynamics_fig.shape_holds t)

let fig7 () =
  section "Figure 7: 529-cell design";
  let t = Spr_experiments.Big_design.run ~effort:(effort_of_env E.Thorough) () in
  print_string (Spr_experiments.Big_design.render t)

(* --- flow presets: seeded vs cold-start anneal --- *)

let flows_json_path = "BENCH_flows.json"

let flows () =
  section "Flow presets: analytical seed vs cold-start anneal";
  let effort = effort_of_env E.Quick in
  let rows = Spr_experiments.Flows_sweep.run ~effort () in
  print_string (Spr_experiments.Flows_sweep.render rows);
  let cmp = Spr_experiments.Flows_sweep.compare_seeded rows in
  Printf.printf
    "ap+sa vs sa over %d circuit-seed cells: %.2fx the annealing moves, quality held on %d\n%!"
    cmp.Spr_experiments.Flows_sweep.cells cmp.Spr_experiments.Flows_sweep.move_ratio
    cmp.Spr_experiments.Flows_sweep.quality_held;
  Spr_util.Persist.atomic_write flows_json_path
    (Spr_obs.Json.to_string ~indent:true (Spr_experiments.Flows_sweep.to_json ~effort rows)
    ^ "\n");
  Printf.printf "flow sweep written to %s\n%!" flows_json_path

let ablation_ordering () =
  section "Ablation A3: rip-up queue ordering (cse)";
  let t = Spr_experiments.Ordering_ablation.run ~effort:(effort_of_env E.Quick) () in
  print_string (Spr_experiments.Ordering_ablation.render t)

let rice_check () =
  section "Delay-model cross-check (D2M vs Elmore, the paper's RICE methodology)";
  List.iter
    (fun spec ->
      let nl = Spr_netlist.Circuits.make spec in
      let arch = Spr_arch.Arch.size_for ~tracks:28 nl in
      let place =
        Spr_layout.Placement.create_exn arch nl ~rng:(Spr_util.Rng.create 7)
      in
      let st = Spr_route.Route_state.create place in
      Spr_route.Router.route_all st;
      let a = Spr_timing.Awe.compare_with_elmore Spr_timing.Delay_model.default st in
      Printf.printf "%-6s %4d sinks  D2M/Elmore mean %.3f  range [%.3f, %.3f]\n"
        spec.Spr_netlist.Circuits.spec_name a.Spr_timing.Awe.n_sinks
        a.Spr_timing.Awe.mean_ratio a.Spr_timing.Awe.min_ratio a.Spr_timing.Awe.max_ratio)
    Spr_netlist.Circuits.table_specs;
  Printf.printf
    "single-pole theory: ratio = ln 2 = 0.693; tight dispersion certifies the Elmore ranking\n%!"

let ablation_seg () =
  section "Ablation A1: channel segmentation schemes (cse, 24 tracks)";
  let rows = Spr_experiments.Seg_ablation.run ~effort:(effort_of_env E.Quick) () in
  print_string (Spr_experiments.Seg_ablation.render rows)

let ablation_pinmap () =
  section "Ablation A2: pinmap reassignment moves (s1)";
  let t = Spr_experiments.Pinmap_ablation.run ~effort:(effort_of_env E.Standard) () in
  print_string (Spr_experiments.Pinmap_ablation.render t)

(* --- Bechamel kernel microbenchmarks --- *)

let make_kernel_state () =
  let nl = Spr_netlist.Circuits.make_by_name "cse" in
  let arch = Spr_arch.Arch.size_for ~tracks:28 nl in
  let place = Spr_layout.Placement.create_exn arch nl ~rng:(Spr_util.Rng.create 7) in
  let rs = Spr_route.Route_state.create place in
  Spr_route.Router.route_all rs;
  let sta = Spr_timing.Sta.create Spr_timing.Delay_model.default rs in
  (nl, place, rs, sta)

let kernel_tests () =
  let open Bechamel in
  let nl, place, rs, sta = make_kernel_state () in
  let dm = Spr_timing.Delay_model.default in
  let routed_net = ref 0 in
  for n = 0 to Spr_netlist.Netlist.n_nets nl - 1 do
    if Spr_route.Route_state.is_fully_routed rs n then routed_net := n
  done;
  let rng = Spr_util.Rng.create 99 in
  let journal = Spr_util.Journal.create () in
  let move_cycle () =
    let cell = Spr_util.Rng.int rng (Spr_netlist.Netlist.n_cells nl) in
    let ripped = Spr_route.Router.rip_up_cell rs journal cell in
    let routed = Spr_route.Router.reroute rs journal in
    Spr_timing.Sta.invalidate sta journal (List.sort_uniq compare (ripped @ routed));
    Spr_util.Journal.rollback journal
  in
  let swap_cycle () =
    let a = Spr_layout.Placement.random_occupied_slot place rng in
    let b = Spr_layout.Placement.random_slot place rng in
    if a <> b && Spr_layout.Placement.swap_legal place a b then begin
      Spr_layout.Placement.swap_slots place a b;
      Spr_layout.Placement.swap_slots place a b
    end
  in
  (* Per-phase kernels: each adds one pipeline phase on top of the
     previous, always rolling back, so the state stays fixed and the
     differences between adjacent kernels isolate each phase's cost. *)
  let random_cell () = Spr_util.Rng.int rng (Spr_netlist.Netlist.n_cells nl) in
  let phase_rip () =
    ignore (Spr_route.Router.rip_up_cell rs journal (random_cell ()) : int list);
    Spr_util.Journal.rollback journal
  in
  let phase_global () =
    ignore (Spr_route.Router.rip_up_cell rs journal (random_cell ()) : int list);
    ignore (Spr_route.Router.reroute_global rs journal : int list);
    Spr_util.Journal.rollback journal
  in
  let phase_detail () =
    ignore (Spr_route.Router.rip_up_cell rs journal (random_cell ()) : int list);
    ignore (Spr_route.Router.reroute_global rs journal : int list);
    ignore (Spr_route.Router.reroute_detail rs journal : int list);
    Spr_util.Journal.rollback journal
  in
  (* The pipeline kernel runs a real transaction end-to-end (placement
     delta, rip-up, both reroutes, dirty-set retime) and rejects it. *)
  let pipe_rng = Spr_util.Rng.create 17 in
  let pipe_journal = Spr_util.Journal.create () in
  let weights =
    Spr_anneal.Weights.create
      ~initial_delay:(Float.max 1e-6 (Spr_timing.Sta.critical_delay sta))
      ()
  in
  let pipeline =
    Spr_core.Move_pipeline.create ~router:Spr_route.Router.default_config
      ~pinmap_move_prob:0.15 ~enable_pinmap_moves:true ~max_swap_tries:8 ~place ~rs ~sta
      ~weights ~journal:pipe_journal ()
  in
  let pipeline_cycle () =
    if Spr_core.Move_pipeline.propose pipeline pipe_rng then
      Spr_core.Move_pipeline.reject pipeline
  in
  [
    Test.make ~name:"elmore: routed net sink delays"
      (Staged.stage (fun () -> Spr_timing.Net_delay.sink_delays dm rs !routed_net));
    Test.make ~name:"sta: critical_delay scan"
      (Staged.stage (fun () -> Spr_timing.Sta.critical_delay sta));
    Test.make ~name:"sta: full update" (Staged.stage (fun () -> Spr_timing.Sta.full_update sta));
    Test.make ~name:"route: detail best_track"
      (Staged.stage (fun () ->
           Spr_route.Detail_router.best_track rs ~channel:2
             ~span:(Spr_util.Interval.make 3 11)));
    Test.make ~name:"placement: swap pair" (Staged.stage swap_cycle);
    Test.make ~name:"phase: rip-up+rollback" (Staged.stage phase_rip);
    Test.make ~name:"phase: rip+global+rollback" (Staged.stage phase_global);
    Test.make ~name:"phase: rip+global+detail+rollback" (Staged.stage phase_detail);
    Test.make ~name:"move: rip+reroute+sta+rollback" (Staged.stage move_cycle);
    Test.make ~name:"pipeline: full move propose+reject" (Staged.stage pipeline_cycle);
  ]

(* Machine-readable mirror of the kernel table, one ns/run entry per
   kernel, written next to the working directory for before/after
   comparisons in EXPERIMENTS.md and CI smoke runs. *)
let kernels_json_path = "BENCH_kernels.json"

let write_kernels_json ~effort rows =
  let open Spr_obs.Json in
  Spr_obs.Bench.write ~path:kernels_json_path ~bench:"kernels"
    ~effort:(E.effort_to_string effort)
    [
      ("unit", String "ns/run");
      ( "kernels",
        Obj
          (List.map
             (fun (name, ns) -> (name, Float (Float.round (ns *. 10.) /. 10.)))
             rows) );
    ];
  Printf.printf "kernel timings written to %s\n%!" kernels_json_path

let kernels () =
  section "Kernel microbenchmarks (Bechamel)";
  let open Bechamel in
  let effort = effort_of_env E.Standard in
  let instance = Toolkit.Instance.monotonic_clock in
  let quota = match effort with E.Quick -> 0.125 | E.Standard | E.Thorough -> 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true () in
  let tests = Test.make_grouped ~name:"kernels" (kernel_tests ()) in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] -> rows := (name, ns) :: !rows
      | Some _ | None -> ())
    results;
  let rows = List.sort compare !rows in
  List.iter (fun (name, ns) -> Printf.printf "%-45s %12.1f ns/run\n" name ns) rows;
  write_kernels_json ~effort rows;
  flush stdout

(* --- parallel portfolio scaling --- *)

let portfolio_json_path = "BENCH_portfolio.json"

(* Fleets of K replicas on the 529-cell design, each replica annealing
   under the same per-replica move budget. On a machine with >= K cores
   every fleet finishes in the same wall-clock, so the table reads as
   "what does K buy at equal time"; with Independent exchange replica 0
   of every fleet IS the K=1 run (same stream), so the fleet best is
   equal-or-better than K=1 by construction. The JSON records the
   measured wall and the core count, so time-sliced runs on small boxes
   stay honest. *)
let portfolio () =
  section "Portfolio scaling (529-cell design, equal per-replica move budget)";
  let effort = effort_of_env E.Quick in
  let budget =
    (* quick must clear the second cooling boundary (warmup 1058 + 2 x
       2645 moves on big529) so a best:2 fleet performs an exchange *)
    match effort with E.Quick -> 7_000 | E.Standard -> 25_000 | E.Thorough -> 60_000
  in
  let nl = Spr_netlist.Circuits.make_by_name "big529" in
  let n = Spr_netlist.Netlist.n_cells nl in
  let arch = E.arch_for ~tracks:38 nl in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "design big529 (%d cells), %d moves per replica, %d core(s)\n%!" n budget cores;
  let fleets =
    [
      (1, Spr_anneal.Portfolio.Independent);
      (2, Spr_anneal.Portfolio.Independent);
      (4, Spr_anneal.Portfolio.Independent);
      (4, Spr_anneal.Portfolio.Best_exchange 2);
    ]
  in
  let rows =
    List.map
      (fun (k, exchange) ->
        let config =
          Spr_core.Tool.Config.(
            E.tool_config ~seed:1 effort ~n
            |> with_max_moves budget
            |> with_replicas ~exchange k)
        in
        let p = Spr_core.Tool.run_exn ~config arch nl in
        let best = Spr_core.Tool.best_result p in
        let moves =
          Array.fold_left
            (fun acc (r : Spr_core.Tool.result) ->
              acc + r.Spr_core.Tool.anneal_report.Spr_anneal.Engine.n_moves)
            0 p.Spr_core.Tool.p_results
        in
        Printf.printf
          "K=%d %-7s  wall %5.1f s  moves %8d (%7.0f/s)  winner r%d  G+D %3d  critical %7.2f ns  rounds %d\n%!"
          k
          (Spr_anneal.Portfolio.exchange_to_string exchange)
          p.Spr_core.Tool.p_wall_seconds moves
          (float_of_int moves /. Float.max 1e-9 p.Spr_core.Tool.p_wall_seconds)
          p.Spr_core.Tool.p_best_replica
          (best.Spr_core.Tool.g + best.Spr_core.Tool.d)
          best.Spr_core.Tool.critical_delay
          (List.length p.Spr_core.Tool.p_rounds);
        (k, exchange, p, best, moves))
      fleets
  in
  let open Spr_obs.Json in
  let fleet_json
      (k, exchange, (p : Spr_core.Tool.fleet), (best : Spr_core.Tool.result), moves)
      =
    Obj
      [
        ("replicas", Int k);
        ("exchange", String (Spr_anneal.Portfolio.exchange_to_string exchange));
        ("wall_s", Float p.Spr_core.Tool.p_wall_seconds);
        ("moves", Int moves);
        ( "moves_per_s",
          Float
            (Float.round
               (float_of_int moves /. Float.max 1e-9 p.Spr_core.Tool.p_wall_seconds)) );
        ("best_replica", Int p.Spr_core.Tool.p_best_replica);
        ("best_cost", Float best.Spr_core.Tool.best_cost);
        ("unrouted", Int (best.Spr_core.Tool.g + best.Spr_core.Tool.d));
        ("critical_delay_ns", Float best.Spr_core.Tool.critical_delay);
        ("exchange_rounds", Int (List.length p.Spr_core.Tool.p_rounds));
      ]
  in
  Spr_obs.Bench.write ~path:portfolio_json_path ~bench:"portfolio"
    ~effort:(E.effort_to_string effort)
    [
      ("design", String "big529");
      ("moves_per_replica", Int budget);
      ("fleets", List (List.map fleet_json rows));
    ];
  Printf.printf "portfolio timings written to %s\n%!" portfolio_json_path

(* --- racing scheduler vs barrier --- *)

let racing_json_path = "BENCH_racing.json"

(* Equal-core-seconds comparison of the two fleet schedulers: every
   replica gets the same move budget (moves are the deterministic proxy
   for core-seconds — both schedulers keep all K domains busy for the
   whole run, racing by reallocating killed replicas' domains to forks
   of the leader), so the table reads as "what does the scheduler buy
   at fixed compute". The racing fleets must record at least one kill,
   or the comparison is vacuous and the bench fails loudly. *)
let racing () =
  section "Racing scheduler vs barrier (equal per-replica move budget)";
  let effort = effort_of_env E.Quick in
  let budget =
    match effort with E.Quick -> 20_000 | E.Standard -> 40_000 | E.Thorough -> 80_000
  in
  let circuit = "s1" in
  let margin = 0.5 in
  let nl = Spr_netlist.Circuits.make_by_name circuit in
  let n = Spr_netlist.Netlist.n_cells nl in
  let arch = E.arch_for nl in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "design %s (%d cells), %d moves per replica, %d core(s)\n%!" circuit n budget
    cores;
  let fleet k scheduler =
    let base =
      Spr_core.Tool.Config.(E.tool_config ~seed:1 effort ~n |> with_max_moves budget)
    in
    (* Only the scheduler differs between the two fleets: both run K
       independent replicas (racing rejects Best_exchange — its kills
       replace the barrier's exchange), so the delta is attributable to
       early-kill + domain reallocation alone. *)
    let config =
      match scheduler with
      | `Barrier -> Spr_core.Tool.Config.with_replicas k base
      | `Racing ->
        Spr_core.Tool.Config.(
          base |> with_replicas k |> with_scheduler_kind `Racing |> with_race_margin margin
          |> with_race_warmup 8 |> with_race_every 3)
    in
    let p = Spr_core.Tool.run_exn ~config arch nl in
    let best = Spr_core.Tool.best_result p in
    let moves =
      Array.fold_left
        (fun acc (r : Spr_core.Tool.result) ->
          acc + r.Spr_core.Tool.anneal_report.Spr_anneal.Engine.n_moves)
        0 p.Spr_core.Tool.p_results
    in
    let kills =
      List.fold_left
        (fun acc (r : Spr_anneal.Scheduler.round_record) -> acc + List.length r.kills)
        0 p.Spr_core.Tool.p_rounds
    in
    let name = match scheduler with `Barrier -> "barrier" | `Racing -> "racing" in
    Printf.printf
      "K=%d %-14s wall %5.1f s  moves %8d  winner r%d  G+D %3d  critical %7.2f ns  kills %d\n%!"
      k name p.Spr_core.Tool.p_wall_seconds moves p.Spr_core.Tool.p_best_replica
      (best.Spr_core.Tool.g + best.Spr_core.Tool.d)
      best.Spr_core.Tool.critical_delay kills;
    (name, k, p, best, moves, kills)
  in
  let rows =
    List.concat_map
      (fun k ->
        let barrier = fleet k `Barrier in
        let racing = fleet k `Racing in
        [ barrier; racing ])
      [ 2; 4 ]
  in
  let racing_kills =
    List.fold_left
      (fun acc (name, _, _, _, _, kills) -> if name = "racing" then acc + kills else acc)
      0 rows
  in
  List.iter
    (fun k ->
      let cost name' =
        List.find_map
          (fun (name, k', _, (best : Spr_core.Tool.result), _, _) ->
            if name = name' && k' = k then Some best.Spr_core.Tool.best_cost else None)
          rows
      in
      match cost "barrier", cost "racing" with
      | Some b, Some r ->
        Printf.printf "K=%d: racing %s barrier at equal core-seconds\n%!" k
          (if r < b then "beats" else if r = b then "ties" else "trails")
      | _ -> ())
    [ 2; 4 ];
  let open Spr_obs.Json in
  let row_json (name, k, (p : Spr_core.Tool.fleet), (best : Spr_core.Tool.result), moves, kills) =
    Obj
      [
        ("scheduler", String name);
        ("replicas", Int k);
        ("wall_s", Float p.Spr_core.Tool.p_wall_seconds);
        ("moves", Int moves);
        ("best_replica", Int p.Spr_core.Tool.p_best_replica);
        ("best_cost", Float best.Spr_core.Tool.best_cost);
        ("unrouted", Int (best.Spr_core.Tool.g + best.Spr_core.Tool.d));
        ("critical_delay_ns", Float best.Spr_core.Tool.critical_delay);
        ("kills", Int kills);
      ]
  in
  Spr_obs.Bench.write ~path:racing_json_path ~bench:"racing"
    ~effort:(E.effort_to_string effort)
    [
      ("design", String circuit);
      ("moves_per_replica", Int budget);
      ("race_margin", Float margin);
      ("fleets", List (List.map row_json rows));
    ];
  Printf.printf "racing comparison written to %s\n%!" racing_json_path;
  if racing_kills = 0 then begin
    Printf.eprintf "FATAL: racing fleets recorded zero kills; the comparison is vacuous\n";
    exit 1
  end

(* --- job service overhead --- *)

let serve_json_path = "BENCH_serve.json"

let rec rmrf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rmrf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The spr serve daemon measured as plumbing: accept latency (connect +
   submit + durable job admission, no P&R work yet) and end-to-end
   throughput of a batch of small concurrent jobs against 2 workers.
   The daemon runs as a real forked process over a throwaway state dir,
   exercising the same fork/select/frame path production uses. *)
let serve () =
  section "Service bench (spr serve: accept latency + concurrent throughput)";
  let module Client = Spr_serve.Client in
  let module Protocol = Spr_serve.Protocol in
  let effort = effort_of_env E.Quick in
  let n_seq, n_conc, moves =
    match effort with
    | E.Quick -> (4, 6, 2_000)
    | E.Standard -> (8, 12, 5_000)
    | E.Thorough -> (16, 24, 10_000)
  in
  let state_dir = ".spr-serve-bench" in
  rmrf state_dir;
  let config =
    { (Spr_serve.Daemon.default_config ~state_dir) with
      Spr_serve.Daemon.max_workers = 2;
      max_queue = n_seq + n_conc + 4
    }
  in
  let socket = Spr_serve.Daemon.socket_path config in
  let daemon =
    match Unix.fork () with
    | 0 ->
      (* the daemon's progress log is noise here; the bench prints its
         own summary lines *)
      (try
         let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
         Unix.dup2 null Unix.stdout;
         Unix.dup2 null Unix.stderr;
         Unix.close null;
         Spr_serve.Daemon.run config
       with _ -> exit 125);
      exit 0
    | pid -> pid
  in
  let rec wait_ready n =
    if n > 100 then failwith "bench daemon did not come up"
    else
      match Client.ping ~socket with
      | Ok () -> ()
      | Error _ ->
        Unix.sleepf 0.1;
        wait_ready (n + 1)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill daemon Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (try Unix.waitpid [] daemon with Unix.Unix_error _ -> (0, Unix.WEXITED 0));
      rmrf state_dir)
    (fun () ->
      wait_ready 0;
      let spec seed =
        { Spr_serve.Spec.default with
          Spr_serve.Spec.design = Circuit "s1";
          label = Printf.sprintf "bench-%d" seed;
          seed;
          effort = Spr_experiments.Profiles.Quick;
          max_moves = Some moves
        }
      in
      let submit_or_fail s =
        match Client.open_submit ~socket s with
        | Ok (conn, id) -> (conn, id)
        | Error (`Rejected _) -> failwith "bench job rejected"
        | Error (`Error e) -> failwith ("bench submit: " ^ e)
      in
      let await_or_fail conn =
        match Client.await conn with
        | Ok (Protocol.Job_done _) -> ()
        | Ok r ->
          failwith
            ("bench job ended badly: " ^ Spr_obs.Json.to_string (Protocol.response_to_json r))
        | Error e -> failwith ("bench await: " ^ e)
      in
      (* sequential: per-job accept latency and turnaround *)
      let accepts = ref [] in
      let turnarounds = ref [] in
      for i = 1 to n_seq do
        let t0 = Spr_util.Clock.now () in
        let conn, _id = submit_or_fail (spec i) in
        accepts := (Spr_util.Clock.now () -. t0) :: !accepts;
        await_or_fail conn;
        turnarounds := (Spr_util.Clock.now () -. t0) :: !turnarounds
      done;
      let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
      let accept_mean_ms = 1000. *. mean !accepts in
      let accept_max_ms = 1000. *. List.fold_left Float.max 0.0 !accepts in
      let turnaround_mean_s = mean !turnarounds in
      Printf.printf
        "sequential: %d jobs  accept %.2f ms mean (%.2f ms max)  turnaround %.2f s mean\n%!"
        n_seq accept_mean_ms accept_max_ms turnaround_mean_s;
      (* concurrent: all submitted up front, 2 workers drain the queue *)
      let t0 = Spr_util.Clock.now () in
      let conns = List.init n_conc (fun i -> fst (submit_or_fail (spec (100 + i)))) in
      List.iter await_or_fail conns;
      let conc_wall = Spr_util.Clock.now () -. t0 in
      let jobs_per_s = float_of_int n_conc /. Float.max 1e-9 conc_wall in
      Printf.printf "concurrent: %d jobs over %d workers  wall %.2f s  %.2f jobs/s\n%!" n_conc
        config.Spr_serve.Daemon.max_workers conc_wall jobs_per_s;
      let open Spr_obs.Json in
      let round2 x = Float.round (x *. 100.) /. 100. in
      Spr_obs.Bench.write ~path:serve_json_path ~bench:"serve"
        ~effort:(E.effort_to_string effort)
        [
          ("workers", Int config.Spr_serve.Daemon.max_workers);
          ("max_moves", Int moves);
          ( "sequential",
            Obj
              [
                ("jobs", Int n_seq);
                ("accept_ms_mean", Float (round2 accept_mean_ms));
                ("accept_ms_max", Float (round2 accept_max_ms));
                ("turnaround_s_mean", Float (round2 turnaround_mean_s));
              ] );
          ( "concurrent",
            Obj
              [
                ("jobs", Int n_conc);
                ("wall_s", Float (round2 conc_wall));
                ("jobs_per_s", Float (round2 jobs_per_s));
              ] );
        ];
      Printf.printf "service timings written to %s\n%!" serve_json_path)

let usage () =
  print_endline
    "usage: main.exe \
     [table1|table2|fig6|fig7|flows|ablation-seg|ablation-pinmap|ablation-ordering|rice|kernels|portfolio|racing|serve|all]";
  print_endline "env: SPR_BENCH_EFFORT=quick|standard|thorough"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let t0 = Sys.time () in
  (match args with
  | [] | [ "all" ] ->
    table1 ();
    table2 ();
    fig6 ();
    fig7 ();
    flows ();
    ablation_seg ();
    ablation_pinmap ();
    ablation_ordering ();
    rice_check ();
    kernels ();
    portfolio ();
    racing ();
    serve ()
  | [ "table1" ] -> table1 ()
  | [ "table2" ] -> table2 ()
  | [ "fig6" ] -> fig6 ()
  | [ "fig7" ] -> fig7 ()
  | [ "flows" ] -> flows ()
  | [ "ablation-seg" ] -> ablation_seg ()
  | [ "ablation-pinmap" ] -> ablation_pinmap ()
  | [ "ablation-ordering" ] -> ablation_ordering ()
  | [ "rice" ] -> rice_check ()
  | [ "kernels" ] -> kernels ()
  | [ "portfolio" ] -> portfolio ()
  | [ "racing" ] -> racing ()
  | [ "serve" ] -> serve ()
  | _ -> usage ());
  Printf.printf "\ntotal bench cpu: %.1f s\n%!" (Sys.time () -. t0)
