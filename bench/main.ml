(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Tables 1-2, Figures 6-7), the design-choice
   ablations from DESIGN.md, Bechamel microbenchmarks of the core
   kernels, and how set-up grows with the design size.

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

(* --- fleet policies --- *)

let fleet_json_path = "BENCH_fleet.json"

(* One fixed table of fleet rows (replicas, exchange policy), run over
   every design. Every run gives each replica the same move budget,
   sized per design to reach about 20 temperatures at quick anneal
   effort. *)
let fleet_rows =
  Spr_anneal.Portfolio.
    [ (1, Independent); (2, Independent); (2, Best_exchange 2); (2, Best_exchange 4) ]

let fleet_row_name (replicas, exchange) =
  Printf.sprintf "K=%d %s" replicas (Spr_anneal.Portfolio.exchange_to_string exchange)

let fleet_reference = "K=2 independent"

(* (design, tracks, moves per replica) *)
let fleet_designs = [ ("s1", 28, 20_000); ("cse", 28, 20_000); ("big529", 38, 55_000) ]

type fleet_run = {
  f_seed : int;
  f_unrouted : int;
  f_delay : float;
  f_cost : float;
  f_wall : float;
  f_temps : int;
  f_rounds : int;
}

(* Linear-interpolation quantile of a non-empty list. *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  let j = min (i + 1) (Array.length a - 1) in
  a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let quartiles xs = (quantile 0.25 xs, quantile 0.5 xs, quantile 0.75 xs)

let fleet_run ~arch ~nl ~moves ~seed (replicas, exchange) =
  let n = Spr_netlist.Netlist.n_cells nl in
  let config =
    Spr_core.Tool.Config.(
      E.tool_config ~seed E.Quick ~n |> with_max_moves moves |> with_replicas ~exchange replicas)
  in
  let p = Spr_core.Tool.run_exn ~config arch nl in
  let best = Spr_core.Tool.best_result p in
  {
    f_seed = seed;
    f_unrouted = best.Spr_core.Tool.g + best.Spr_core.Tool.d;
    f_delay = best.Spr_core.Tool.critical_delay;
    f_cost = best.Spr_core.Tool.best_cost;
    f_wall = p.Spr_core.Tool.p_wall_seconds;
    f_temps = best.Spr_core.Tool.anneal_report.Spr_anneal.Engine.n_temperatures;
    f_rounds = List.length p.Spr_core.Tool.p_rounds;
  }

(* The repository's gain rule (EXPERIMENTS): a row beats the reference
   when it wins at least nine tenths of the per-seed pairs and its
   median is better by more than the reference's quartile spread. A run
   is compared on unrouted nets first and critical delay second, which
   is the order [best_cost] encodes. *)
let fleet_summary ~reference runs =
  let cmp a b = compare (a.f_unrouted, a.f_delay) (b.f_unrouted, b.f_delay) in
  let outcomes = List.map2 cmp runs reference in
  let count f = List.length (List.filter f outcomes) in
  let wins = count (fun c -> c < 0) and ties = count (( = ) 0) in
  let losses = count (fun c -> c > 0) in
  let costs rs = List.map (fun r -> r.f_cost) rs in
  let q1, ref_median, q3 = quartiles (costs reference) in
  let _, median, _ = quartiles (costs runs) in
  let gap = ref_median -. median and spread = q3 -. q1 in
  let gain = wins * 10 >= 9 * List.length runs && gap > spread in
  (wins, ties, losses, gap, spread, gain)

let fleet () =
  section "Fleet policies (equal per-replica move budget, quick anneal effort)";
  let effort = effort_of_env E.Standard in
  let designs, seeds =
    match effort with
    | E.Quick -> ([ List.hd fleet_designs ], [ 1; 2 ])
    | E.Standard | E.Thorough -> (fleet_designs, List.init 8 (fun i -> i + 1))
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "seeds %s, %d core(s)\n%!"
    (String.concat "," (List.map string_of_int seeds))
    cores;
  let open Spr_obs.Json in
  let stat_json f runs =
    let q1, med, q3 = quartiles (List.map f runs) in
    Obj [ ("median", Float med); ("q1", Float q1); ("q3", Float q3) ]
  in
  let design_json (name, tracks, moves) =
    let nl = Spr_netlist.Circuits.make_by_name name in
    let arch = E.arch_for ~tracks nl in
    Printf.printf "\n%s (%d cells, %d tracks), %d moves per replica\n%!" name
      (Spr_netlist.Netlist.n_cells nl) tracks moves;
    let rows =
      List.map
        (fun ((replicas, _) as fleet) ->
          let row = fleet_row_name fleet in
          let runs =
            List.map
              (fun seed ->
                let r = fleet_run ~arch ~nl ~moves ~seed fleet in
                Printf.printf
                  "  %-20s seed %d  G+D %3d  critical %8.2f ns  wall %5.1f s  temps %3d  \
                   rounds %2d\n%!"
                  row seed r.f_unrouted r.f_delay r.f_wall r.f_temps r.f_rounds;
                r)
              seeds
          in
          (row, replicas, runs))
        fleet_rows
    in
    let reference =
      List.find_map (fun (row, _, runs) -> if row = fleet_reference then Some runs else None) rows
      |> Option.get
    in
    let row_json (row, replicas, runs) =
      let wins, ties, losses, gap, spread, gain = fleet_summary ~reference runs in
      let verdict =
        if row = fleet_reference then "reference" else if gain then "gain" else "no gain"
      in
      let _, unrouted, _ = quartiles (List.map (fun r -> float_of_int r.f_unrouted) runs) in
      let _, delay, _ = quartiles (List.map (fun r -> r.f_delay) runs) in
      Printf.printf
        "%-20s median G+D %5.1f  delay %8.2f ns  vs %s: %d wins, %d ties, %d losses  %s\n%!" row
        unrouted delay fleet_reference wins ties losses verdict;
      Obj
        [
          ("row", String row);
          ("replicas", Int replicas);
          ( "runs",
            List
              (List.map
                 (fun r ->
                   Obj
                     [
                       ("seed", Int r.f_seed);
                       ("unrouted", Int r.f_unrouted);
                       ("critical_delay_ns", Float r.f_delay);
                       ("best_cost", Float r.f_cost);
                       ("wall_s", Float r.f_wall);
                       ("temperatures", Int r.f_temps);
                       ("rounds", Int r.f_rounds);
                     ])
                 runs) );
          ("unrouted", stat_json (fun r -> float_of_int r.f_unrouted) runs);
          ("critical_delay_ns", stat_json (fun r -> r.f_delay) runs);
          ("wall_s", stat_json (fun r -> r.f_wall) runs);
          ( "vs_reference",
            Obj
              [
                ("wins", Int wins);
                ("ties", Int ties);
                ("losses", Int losses);
                ("median_cost_gap", Float gap);
                ("reference_cost_iqr", Float spread);
              ] );
          ("verdict", String verdict);
        ]
    in
    Obj
      [
        ("design", String name);
        ("cells", Int (Spr_netlist.Netlist.n_cells nl));
        ("tracks", Int tracks);
        ("moves_per_replica", Int moves);
        ("rows", List (List.map row_json rows));
      ]
  in
  let designs = List.map design_json designs in
  Spr_obs.Bench.write ~path:fleet_json_path ~bench:"fleet" ~effort:(E.effort_to_string effort)
    [
      ("anneal_effort", String "quick");
      ("seeds", List (List.map (fun s -> Int s) seeds));
      ("reference", String fleet_reference);
      ("designs", List designs);
    ];
  Printf.printf "fleet table written to %s\n%!" fleet_json_path

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

(* --- set-up scaling --- *)

let scaling_json_path = "BENCH_scaling.json"

let scaling_tracks = 38

let scaling_moves = 500

type scaling_run = {
  s_nets : int;
  s_rows : int;
  s_cols : int;
  s_wall : float;
  s_moves : int;
  s_rss_mb : float;
}

(* Peak resident set of this process, in MB ([VmHWM], reported in kB). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.
          | None -> find ())
        | exception End_of_file -> nan
      in
      find ())

(* One run as [spr route genN.blif --tracks 38 --effort quick] makes it:
   the BLIF bytes are parsed, the fabric sized and the flow configured
   through the same run spec, and the wall clock covers all of that. *)
let scaling_run ~cells ~max_moves =
  let blif =
    Spr_netlist.Blif.to_string
      (Spr_netlist.Generator.generate (Spr_netlist.Generator.default ~n_cells:cells) ~seed:1)
  in
  let spec =
    { Spr_serve.Spec.default with
      Spr_serve.Spec.label = Printf.sprintf "gen%d" cells;
      design = Blif blif;
      tracks = scaling_tracks;
      seed = 1;
      effort = E.Quick;
      max_moves = Some max_moves
    }
  in
  let ok = function Ok v -> v | Error e -> failwith e in
  Gc.full_major ();
  let t0 = Spr_util.Clock.now () in
  let nl = ok (Spr_serve.Spec.netlist spec) in
  let arch = ok (Spr_serve.Spec.arch spec nl) in
  let config = ok (Spr_serve.Spec.config spec ~n:(Spr_netlist.Netlist.n_cells nl)) in
  let p = Spr_core.Tool.run_exn ~config arch nl in
  let s_wall = Spr_util.Clock.now () -. t0 in
  {
    s_nets = Spr_netlist.Netlist.n_nets nl;
    s_rows = arch.Spr_arch.Arch.rows;
    s_cols = arch.Spr_arch.Arch.cols;
    s_wall;
    s_moves = (Spr_core.Tool.best_result p).Spr_core.Tool.report.Spr_obs.Report.r_moves;
    s_rss_mb = peak_rss_mb ();
  }

(* Every run is a forked child of its own, so its peak RSS is that run's
   alone, like a CLI process's, and not the largest design's so far. *)
let scaling_in_child ~cells ~max_moves =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      match scaling_run ~cells ~max_moves with
      | r ->
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc (r : scaling_run) [];
        close_out oc;
        0
      | exception e ->
        prerr_endline ("scaling: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r = try Some (Marshal.from_channel ic : scaling_run) with End_of_file -> None in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match r with
    | Some r -> r
    | None -> failwith (Printf.sprintf "scaling: the %d-cell run reported nothing" cells)

type scaling_row = {
  cells : int;
  setup : float;  (* the fastest of the one-move runs *)
  budget : scaling_run;  (* a run of [scaling_moves] moves *)
}

(* The fastest of two to five one-move runs, stopping once they have
   taken 2 s: host noise only ever adds time, and small designs need
   more runs to find their floor. *)
let scaling_setup cells =
  let rec go best runs spent =
    if runs >= 5 || (runs >= 2 && spent >= 2.0) then best
    else
      let w = (scaling_in_child ~cells ~max_moves:1).s_wall in
      go (Float.min best w) (runs + 1) (spent +. w)
  in
  go infinity 0 0.0

(* Moves per second of the anneal alone: the moves past the first over
   the wall clock the budget run spent past a one-move run. *)
let scaling_moves_per_s r =
  float_of_int (r.budget.s_moves - 1) /. Float.max 1e-9 (r.budget.s_wall -. r.setup)

(* The slope of log(set-up) against log(cells) between two sizes: 1 is
   linear, 2 quadratic. *)
let setup_exponent a b =
  log (b.setup /. a.setup) /. log (float_of_int b.cells /. float_of_int a.cells)

let scaling () =
  section "Set-up scaling (generated designs, 38 tracks, quick anneal effort)";
  let sizes = [ 1000; 2000; 4000; 8000; 16000 ] in
  Printf.printf "%7s %7s %9s %9s %10s %9s\n%!" "cells" "nets" "fabric" "setup_s" "moves/s"
    "peak_MB";
  let rows =
    List.map
      (fun cells ->
        let setup = scaling_setup cells in
        let r = { cells; setup; budget = scaling_in_child ~cells ~max_moves:scaling_moves } in
        Printf.printf "%7d %7d %4dx%-4d %9.3f %10.1f %9.1f\n%!" cells r.budget.s_nets
          r.budget.s_rows r.budget.s_cols setup (scaling_moves_per_s r) r.budget.s_rss_mb;
        r)
      sizes
  in
  let find cells = List.find (fun r -> r.cells = cells) rows in
  let exponent = setup_exponent (find 4000) (find 16000) in
  Printf.printf "set-up exponent 4k -> 16k cells: %.2f\n%!" exponent;
  let open Spr_obs.Json in
  let round3 x = Float.round (x *. 1000.) /. 1000. in
  let row_json r =
    Obj
      [
        ("cells", Int r.cells);
        ("nets", Int r.budget.s_nets);
        ("rows", Int r.budget.s_rows);
        ("cols", Int r.budget.s_cols);
        ("setup_s", Float (round3 r.setup));
        ("budget_wall_s", Float (round3 r.budget.s_wall));
        ("moves", Int r.budget.s_moves);
        ("moves_per_s", Float (round3 (scaling_moves_per_s r)));
        ("peak_rss_mb", Float (round3 r.budget.s_rss_mb));
      ]
  in
  Spr_obs.Bench.write ~path:scaling_json_path ~bench:"scaling"
    ~effort:(E.effort_to_string E.Quick)
    [
      ("design_seed", Int 1);
      ("tracks", Int scaling_tracks);
      ("move_budget", Int scaling_moves);
      ("sizes", List (List.map row_json rows));
      ("setup_exponent_4k_16k", Float (Float.round (exponent *. 100.) /. 100.));
    ];
  Printf.printf "scaling curve written to %s\n%!" scaling_json_path

let usage () =
  print_endline
    "usage: main.exe \
     [table1|table2|fig6|fig7|flows|ablation-seg|ablation-pinmap|ablation-ordering|rice|kernels|fleet|serve|scaling|all]";
  print_endline "env: SPR_BENCH_EFFORT=quick|standard|thorough"

(* Process CPU seconds, with those of the children already reaped: the
   scaling and serve benches do their work in forked children. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let t0 = cpu_seconds () in
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
    fleet ();
    serve ();
    scaling ()
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
  | [ "fleet" ] -> fleet ()
  | [ "serve" ] -> serve ()
  | [ "scaling" ] -> scaling ()
  | _ -> usage ());
  Printf.printf "\ntotal bench cpu: %.1f s\n%!" (cpu_seconds () -. t0)
