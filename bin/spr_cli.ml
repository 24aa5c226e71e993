(* spr — command-line driver for the flow-stage engine: the
   simultaneous place-and-route tool, the sequential baseline, and the
   analytically seeded pipelines between them.

     spr generate --cells 200 --seed 3 > c.blif
     spr route c.blif --tracks 28 --flow sa
     spr route --circuit s1 --flow ap+sa --stage-budget sa=30 --run-dir runs/f
     spr route --circuit s1 --svg die.svg --checkpoint s1.ckpt
     spr route --circuit s1 --obs-endpoints 5 --obs-clock 120
     spr route --circuit s1 --trace s1.jsonl --report s1-report.json
     spr report s1.jsonl
     spr flows -o BENCH_flows.json
     spr min-tracks --circuit bw
     spr dynamics --circuit s1

   The route flag surface is grouped: observability under
   --obs-*/--trace/--report, persistence under --run-*, flow selection
   under --flow/--stage-budget, fleet scheduling under
   --parallel/--exchange/--scheduler/--race-*. The flags that decide a
   run build one Spr_serve.Spec, shared by route and submit; the spec
   alone maps to the run's configuration. *)

open Cmdliner
module Spec = Spr_serve.Spec

(* The design partition and stats read: a BLIF file or a built-in
   circuit. *)
let load_netlist ~file ~circuit =
  match file, circuit with
  | Some path, _ -> Spr_netlist.Blif.parse_file path
  | None, Some name -> Spec.netlist { Spec.default with design = Circuit name }
  | None, None -> Error "provide a BLIF file or --circuit NAME"

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"BLIF" ~doc:"Input netlist in BLIF format.")

let circuit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "circuit" ] ~docv:"NAME" ~doc:"Built-in benchmark circuit (s1, cse, ex1, bw, s1a, big529).")

let tracks_arg =
  Arg.(
    value & opt int Spec.default.tracks
    & info [ "tracks" ] ~docv:"N" ~doc:"Horizontal tracks per channel.")

let seed_arg =
  Arg.(value & opt int Spec.default.seed & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let scheme_arg =
  let parse s =
    match Spr_arch.Segmentation.scheme_of_string s with
    | Some scheme -> Ok scheme
    | None -> Error (`Msg (Printf.sprintf "bad segmentation %S (full|uniform:<n>|actel|geometric)" s))
  in
  let print ppf s = Format.pp_print_string ppf (Spr_arch.Segmentation.scheme_to_string s) in
  Arg.(
    value
    & opt (conv (parse, print)) Spec.default.scheme
    & info [ "segmentation" ] ~docv:"SCHEME" ~doc:"Channel segmentation scheme.")

let effort_arg =
  let parse s =
    match Spr_experiments.Profiles.effort_of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg "effort is quick|standard|thorough")
  in
  let print ppf e = Format.pp_print_string ppf (Spr_experiments.Profiles.effort_to_string e) in
  Arg.(
    value
    & opt (conv (parse, print)) Spec.default.effort
    & info [ "effort" ] ~docv:"LEVEL" ~doc:"Annealing effort: quick, standard or thorough.")

(* --- generate --- *)

let generate cells seed output =
  let nl =
    Spr_netlist.Generator.generate (Spr_netlist.Generator.default ~n_cells:cells) ~seed
  in
  let text = Spr_netlist.Blif.to_string ~model_name:(Printf.sprintf "synth%d" cells) nl in
  (match output with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc);
  `Ok ()

let generate_cmd =
  let cells =
    Arg.(value & opt int 200 & info [ "cells" ] ~docv:"N" ~doc:"Total cell count.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic MCNC-like circuit as BLIF.")
    Term.(ret (const generate $ cells $ seed_arg $ output))

(* --- the run spec: route and submit read one set of flags --- *)

let sched_docs = "FLEET SCHEDULING OPTIONS"

(* Every spec flag but the design, defaulting to [Spec.default]; the
   design the command line names, if any, comes alongside. *)
let spec_term =
  let d = Spec.default in
  let flow =
    Arg.(value & opt string d.flow
         & info [ "flow" ] ~docv:"FLOW"
             ~doc:"Flow preset: $(b,sa) (the simultaneous anneal), $(b,ap+sa) (analytical seed \
                   placement, then the anneal at reduced temperature), $(b,ap+greedy+route), \
                   $(b,seq) (the sequential baseline), or any +-joined chain of stages \
                   (ap, sa, greedy, route, sta).")
  in
  let stage_budgets =
    Arg.(value & opt_all (pair ~sep:'=' string float) d.stage_budgets
         & info [ "stage-budget" ] ~docv:"STAGE=SECONDS"
             ~doc:"Wall-clock budget for one flow stage (repeatable), e.g. --stage-budget ap=5 \
                   --stage-budget sa=60.")
  in
  let time_budget =
    Arg.(value & opt (some float) d.time_budget
         & info [ "time-budget" ] ~docv:"SECS"
             ~doc:"Stop gracefully after $(docv) wall seconds and keep the best layout so far.")
  in
  let max_moves =
    Arg.(value & opt (some int) d.max_moves
         & info [ "max-moves" ] ~docv:"N"
             ~doc:"Stop gracefully after $(docv) annealing moves (cumulative across resumes).")
  in
  let replicas =
    Arg.(value & opt int d.replicas
         & info [ "parallel" ] ~docv:"K"
             ~doc:"Anneal $(docv) independent replicas in parallel (one per domain) and keep \
                   the best result. $(docv)=1 is the plain serial run.")
  in
  let exchange =
    let parse s = Result.map_error (fun e -> `Msg e) (Spr_anneal.Portfolio.exchange_of_string s) in
    let print ppf x = Format.pp_print_string ppf (Spr_anneal.Portfolio.exchange_to_string x) in
    Arg.(
      value
      & opt (conv (parse, print)) d.exchange
      & info [ "exchange" ] ~docv:"POLICY" ~docs:sched_docs
          ~doc:"Portfolio exchange policy: $(b,independent), or $(b,best:N) to broadcast the \
                portfolio-best layout to lagging replicas every N temperature boundaries \
                ($(b,barrier) scheduler only).")
  in
  let kind =
    let parse s = Result.map_error (fun e -> `Msg e) (Spr_core.Config.scheduler_of_string s) in
    let print ppf kind = Format.pp_print_string ppf (Spr_core.Config.scheduler_to_string kind) in
    Arg.(
      value
      & opt (conv (parse, print)) d.scheduler.kind
      & info [ "scheduler" ] ~docv:"POLICY" ~docs:sched_docs
          ~doc:"Replica scheduler for $(b,--parallel) fleets: $(b,barrier) (every replica runs \
                to completion, coordinated only by $(b,--exchange)), $(b,racing) (fit an online \
                predictor on each replica's annealing dynamics and early-kill replicas whose \
                predicted final quality trails the fleet leader, reallocating their domains to \
                perturbed forks of the leader; deterministic and resumable).")
  in
  let race_margin =
    Arg.(value & opt float d.scheduler.race_margin
         & info [ "race-margin" ] ~docv:"NETS" ~docs:sched_docs
             ~doc:"Racing kill threshold, in unrouted-net units: a replica is killed only when \
                   its predicted final quality trails the leader's by more than $(docv) plus \
                   both predictions' uncertainties.")
  in
  let race_warmup =
    Arg.(value & opt int d.scheduler.race_warmup
         & info [ "race-warmup" ] ~docv:"N" ~docs:sched_docs
             ~doc:"Temperature steps before the first racing decision round.")
  in
  let race_every =
    Arg.(value & opt int d.scheduler.race_every
         & info [ "race-every" ] ~docv:"N" ~docs:sched_docs
             ~doc:"Temperature steps between racing decision rounds.")
  in
  let make file circuit tracks scheme seed effort flow stage_budgets replicas exchange kind
      race_margin race_warmup race_every time_budget max_moves =
    let source =
      match file, circuit with
      | Some path, _ -> Some (`File path)
      | None, Some name -> Some (`Circuit name)
      | None, None -> None
    in
    let scheduler = { Spr_core.Config.kind; race_margin; race_warmup; race_every } in
    ( source,
      { d with tracks; scheme; seed; effort; flow; stage_budgets; replicas; exchange; scheduler;
               time_budget; max_moves } )
  in
  Term.(
    const make $ file_arg $ circuit_arg $ tracks_arg $ scheme_arg $ seed_arg $ effort_arg $ flow
    $ stage_budgets $ replicas $ exchange $ kind $ race_margin $ race_warmup $ race_every
    $ time_budget $ max_moves)

(* A new run's spec: the flags plus the design the command line names,
   a built-in circuit by name or a BLIF file's bytes labelled with its
   basename. *)
let fresh_spec (source, (settings : Spec.t)) =
  match source with
  | None -> Error "provide a BLIF file or --circuit NAME"
  | Some (`Circuit name) -> Ok { settings with design = Circuit name; label = name }
  | Some (`File path) ->
    Spr_util.Persist.read_file path
    |> Result.map (fun text ->
           { settings with
             design = Blif text;
             label = Filename.remove_extension (Filename.basename path) })

(* --- route --- *)

type run_flags = {
  run_dir : string option;
  resume : string option;
  snapshot_every : int;
  snapshot_keep : int;
}

type outputs = {
  svg : string option;
  checkpoint : string option;
  ascii : bool;
  stats : bool;
  report : string option;
  endpoints : int option;
  clock : float option;
  trace : string option;
  profile : bool;
  selfcheck : bool;
}

(* The per-replica table and the fleet verdict; a fleet of one prints
   neither. *)
let report_fleet (p : Spr_core.Tool.fleet) =
  let module T = Spr_core.Tool in
  if Array.length p.T.p_results > 1 then begin
    Array.iteri
      (fun k (r : T.result) ->
        Printf.printf "  replica %d%s routed=%b (G=%d D=%d)  critical=%.2f ns  cpu=%.1f s\n" k
          (if k = p.T.p_best_replica then "*" else " ")
          r.T.fully_routed r.T.g r.T.d r.T.critical_delay r.T.cpu_seconds)
      p.T.p_results;
    let kills =
      List.map (fun (r : Spr_anneal.Scheduler.round_record) -> List.length r.kills) p.T.p_rounds
    in
    Printf.printf "portfolio: replica %d wins (%d replicas, %d exchange rounds%s, %.1f s wall)\n"
      p.T.p_best_replica (Array.length p.T.p_results)
      (List.length (List.filter (( = ) 0) kills))
      (match List.fold_left ( + ) 0 kills with
      | 0 -> ""
      | n -> Printf.sprintf ", %d racing kills" n)
      p.T.p_wall_seconds
  end

(* Layout-facing outputs shared by every flow: stats, SVG, checkpoint,
   ASCII die plot and the worst-endpoints table need only the routed
   state and its STA, whatever produced them. *)
let post_layout nl ~route ~sta (o : outputs) =
  if o.stats then
    Format.printf "%a" Spr_route.Route_stats.pp (Spr_route.Route_stats.collect route);
  (match o.svg with
  | None -> ()
  | Some path ->
    let hot = Spr_render.Die_plot.critical_nets sta route in
    Spr_render.Die_plot.save_svg ~highlight:hot route path;
    Printf.printf "die plot written to %s\n" path);
  (match o.checkpoint with
  | None -> ()
  | Some path ->
    Spr_core.Checkpoint.save route path;
    Printf.printf "checkpoint written to %s\n" path);
  if o.ascii then print_string (Spr_render.Die_plot.to_ascii route);
  match o.endpoints with
  | None -> ()
  | Some k ->
    let paths = Spr_timing.Path_report.worst_paths ~k ?clock_period:o.clock sta in
    Printf.printf "\nworst %d endpoints:\n%s" k (Spr_timing.Path_report.render nl paths)

(* One printer for every flow, fresh or resumed, one replica or a fleet:
   the fleet table, an early stop of the sa stage, the stage table and
   verdict, the artifacts, the sa winner's profile, then the audit of
   the final layout. *)
let print_result ~flow ~(config : Spr_core.Config.t) ~run_dir (o : outputs) nl
    (r : Spr_flow.result) =
  let module T = Spr_core.Tool in
  let sa = Option.map T.best_result r.Spr_flow.f_fleet in
  Option.iter report_fleet r.Spr_flow.f_fleet;
  (match sa with
  | Some { T.status = T.Interrupted reason; _ } ->
    Printf.printf "interrupted (%s): best-so-far layout follows%s\n"
      (T.stop_reason_to_string reason)
      (match run_dir with
      | Some dir -> Printf.sprintf "; continue with: spr route --run-resume %s" dir
      | None -> "")
  | Some _ | None -> ());
  List.iter
    (fun s ->
      Printf.printf "  stage %-7s %7.1f s  %s\n" s.Spr_flow.sg_name s.Spr_flow.sg_seconds
        s.Spr_flow.sg_detail)
    r.Spr_flow.f_stages;
  Option.iter (Printf.printf "  seeded anneal start temperature %.4g\n")
    r.Spr_flow.f_seed_temperature;
  Printf.printf "flow %-16s routed=%b (G=%d D=%d)  critical=%.2f ns  %.1f s\n" flow
    r.Spr_flow.f_fully_routed r.Spr_flow.f_g r.Spr_flow.f_d r.Spr_flow.f_critical_delay
    (Spr_flow.stage_seconds r);
  Printf.printf "critical path: %s\n"
    (String.concat " -> "
       (List.map
          (fun c -> (Spr_netlist.Netlist.cell nl c).Spr_netlist.Netlist.cell_name)
          (Spr_timing.Sta.critical_path r.Spr_flow.f_sta)));
  Option.iter (Printf.printf "trace written to %s\n") config.obs.trace_path;
  (* Only an sa stage writes a run report. *)
  (match config.obs.report_path, sa with
  | Some path, Some _ -> Printf.printf "report written to %s\n" path
  | _ -> ());
  (match sa with
  | Some w when o.profile ->
    Format.printf "%a" Spr_core.Profile.pp w.T.profile;
    Format.printf "per-temperature phase times:@.%a" Spr_core.Dynamics.pp_phase_series
      w.T.dynamics
  | _ -> ());
  let audit_ok =
    (not o.selfcheck)
    ||
    match Spr_check.Audit.run_all ~sta:r.Spr_flow.f_sta r.Spr_flow.f_route with
    | [] ->
      Printf.printf "selfcheck: zero audit findings\n";
      true
    | findings ->
      Printf.printf "selfcheck FAILED:\n%s\n" (Spr_check.Finding.summarize findings);
      false
  in
  post_layout nl ~route:r.Spr_flow.f_route ~sta:r.Spr_flow.f_sta o;
  if audit_ok then Ok () else Error "selfcheck reported audit findings"

(* A fresh run builds its spec from the flags and stores it in the run
   directory; a resume loads that spec and takes only this invocation's
   budgets from the flags. Either way the spec is validated before
   anything is written, and the one flow engine call runs it. *)
let route spec_flags (run : run_flags) (o : outputs) =
  let ( let* ) = Result.bind in
  let prepared =
    let* spec =
      match run.resume, spec_flags with
      | Some _, (Some _, _) ->
        Error "--run-resume continues a saved run; do not also give a design"
      | Some dir, (None, (flags : Spec.t)) ->
        Spec.load dir
        |> Result.map (fun (s : Spec.t) ->
               { s with
                 time_budget = flags.time_budget;
                 max_moves = flags.max_moves;
                 stage_budgets = flags.stage_budgets })
        |> Result.map_error (fun e -> "resume failed: " ^ e)
      | None, _ -> fresh_spec spec_flags
    in
    let* () = Spec.validate spec in
    let* nl = Spec.netlist spec in
    let* config = Spec.config spec ~n:(Spr_netlist.Netlist.n_cells nl) in
    Format.printf "circuit: %a@." Spr_netlist.Netlist.pp_summary nl;
    let arch = Spec.arch spec nl in
    Format.printf "fabric:  %a@." Spr_arch.Arch.pp arch;
    let run_dir = match run.resume with Some _ -> run.resume | None -> run.run_dir in
    let config =
      let open Spr_core.Config in
      config
      |> (match run_dir with
         | Some dir ->
           with_run_dir ~snapshot_every:run.snapshot_every ~snapshot_keep:run.snapshot_keep dir
         | None -> Fun.id)
      |> (if o.selfcheck then with_validate true else Fun.id)
      |> (match o.trace with Some path -> with_trace_file path | None -> Fun.id)
      |> match o.report with Some path -> with_report_file path | None -> Fun.id
    in
    (match run.resume, run_dir with
    | Some dir, _ ->
      (* Each replica continues from its own newest loadable snapshot
         (or restarts from scratch without one) and recorded rounds
         replay from the run directory; a multi-stage flow first skips
         the stages flow.json records as done. *)
      Printf.printf "resuming flow %s with %d replica%s from %s\n%!" spec.flow spec.replicas
        (if spec.replicas = 1 then "" else "s")
        dir
    | None, Some dir -> Spec.save ~dir spec
    | None, None -> ());
    Ok (spec.flow, config, arch, nl, run_dir)
  in
  (* The run starts only once [prepared] holds no spec, so a BLIF
     design's bytes are not kept alive through it. *)
  let outcome =
    let* flow, config, arch, nl, run_dir = prepared in
    Spr_core.Tool.install_signal_handlers ();
    match Spr_flow.run ~config ?resume_dir:run.resume arch nl with
    | Error e ->
      Error (Printf.sprintf "flow %s failed: %s" flow (Spr_core.Tool.error_to_string e))
    | Ok r -> print_result ~flow ~config ~run_dir o nl r
  in
  match outcome with Ok () -> `Ok () | Error e -> `Error (false, e)

let route_cmd =
  let obs_docs = "OBSERVABILITY OPTIONS" in
  let run_docs = "RUN PERSISTENCE OPTIONS" in
  let svg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE" ~doc:"Write a die plot (critical path highlighted).")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE" ~doc:"Save the layout for later reload/ECO.")
  in
  let ascii =
    Arg.(value & flag & info [ "ascii" ] ~doc:"Print an ASCII die map and channel utilization.")
  in
  let stats =
    Arg.(value & flag
         & info [ "obs-stats" ] ~docs:obs_docs
             ~doc:"Print wirelength, antifuse and utilization statistics.")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE" ~docs:obs_docs
             ~doc:"Write the unified run report (report.json, machine twin of the ASCII \
                   tables) to $(docv).")
  in
  let endpoints =
    Arg.(value & opt (some int) None
         & info [ "obs-endpoints" ] ~docv:"K" ~docs:obs_docs
             ~doc:"Print the K worst timing endpoints.")
  in
  let clock =
    Arg.(value & opt (some float) None
         & info [ "obs-clock" ] ~docv:"NS" ~docs:obs_docs
             ~doc:"Clock period for slack in the timing report.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE" ~docs:obs_docs
             ~doc:"Record a schema-versioned JSONL event trace (spans, per-temperature \
                   dynamics, metrics) to $(docv); re-render it with $(b,spr report).")
  in
  let selfcheck =
    Arg.(value & flag
         & info [ "selfcheck" ]
             ~doc:"Audit the incremental state against from-scratch recomputation during the \
                   anneal and on the final layout of any flow (placement bijection, routing \
                   mirrors, STA diff).")
  in
  let profile =
    Arg.(value & flag
         & info [ "obs-profile" ] ~docs:obs_docs
             ~doc:"Print the per-phase move-pipeline breakdown (propose, rip-up, reroute, \
                   retime, decide) and per-temperature phase times of the sa stage.")
  in
  let run_dir =
    Arg.(value & opt (some string) None
         & info [ "run-dir" ] ~docv:"DIR" ~docs:run_docs
             ~doc:"Write the run spec (design included) and crash-safe resumable snapshots \
                   into $(docv) as the run progresses.")
  in
  let resume =
    Arg.(value & opt (some dir) None
         & info [ "run-resume" ] ~docv:"DIR" ~docs:run_docs
             ~doc:"Continue an interrupted run from the spec and the newest good snapshot in \
                   $(docv).")
  in
  let persistence = Spr_core.Config.default.persistence in
  let snapshot_every =
    Arg.(value & opt int persistence.snapshot_every
         & info [ "run-snapshot-every" ] ~docv:"N" ~docs:run_docs
             ~doc:"With --run-dir, snapshot every $(docv) temperature boundaries.")
  in
  let snapshot_keep =
    Arg.(value & opt int persistence.snapshot_keep
         & info [ "run-snapshot-keep" ] ~docv:"K" ~docs:run_docs
             ~doc:"With --run-dir, keep the newest $(docv) snapshots.")
  in
  let run_term =
    Term.(
      const (fun run_dir resume snapshot_every snapshot_keep ->
          { run_dir; resume; snapshot_every; snapshot_keep })
      $ run_dir $ resume $ snapshot_every $ snapshot_keep)
  in
  let outputs_term =
    Term.(
      const (fun svg checkpoint ascii stats report endpoints clock trace profile selfcheck ->
          { svg; checkpoint; ascii; stats; report; endpoints; clock; trace; profile; selfcheck })
      $ svg $ checkpoint $ ascii $ stats $ report $ endpoints $ clock $ trace $ profile
      $ selfcheck)
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Place and route a circuit on a row-based fabric.")
    Term.(ret (const route $ spec_term $ run_term $ outputs_term))

(* --- report: re-render a stored trace --- *)

let report_trace trace_file check =
  match Spr_obs.Trace.of_file trace_file with
  | Error e -> `Error (false, e)
  | Ok events -> (
    match Spr_obs.Trace.validate events with
    | Error e -> `Error (false, Printf.sprintf "%s: %s" trace_file e)
    | Ok () ->
      if check then begin
        Printf.printf "%s: valid %s trace (%d events)\n" trace_file
          Spr_obs.Trace.schema_version (List.length events);
        `Ok ()
      end
      else begin
        let open Spr_obs.Trace in
        List.iter
          (fun e ->
            match e.ev with
            | Run_start { label; seed; replicas; n_cells; n_nets } ->
              Printf.printf "run %s: seed=%d replicas=%d cells=%d nets=%d\n" label seed
                replicas n_cells n_nets
            | _ -> ())
          events;
        let replicas =
          List.sort_uniq compare
            (List.filter_map
               (fun e -> match e.ev with Temp _ -> Some e.ev_replica | _ -> None)
               events)
        in
        let many = match replicas with [] | [ _ ] -> false | _ -> true in
        List.iter
          (fun k ->
            let rows =
              List.filter_map
                (fun e ->
                  match e.ev with Temp row when e.ev_replica = k -> Some row | _ -> None)
                events
            in
            if many then Printf.printf "replica %d:\n" k;
            Format.printf "%a" Spr_obs.Report.render_dynamics rows)
          replicas;
        List.iter
          (fun e ->
            match e.ev with
            | Exchange { round; from_replica; metric } ->
              Printf.printf "exchange round %d: replica %d leads (metric %.4g)\n" round
                from_replica metric
            | Replica_end { status; g; d; delay_ns; best_cost } when many ->
              Printf.printf "replica %d: %s  G=%d D=%d  critical=%.2f ns  best-cost=%.4g\n"
                e.ev_replica status g d delay_ns best_cost
            | Run_end { status; g; d; delay_ns; best_cost; wall_seconds } ->
              Printf.printf "run %s: G=%d D=%d  critical=%.2f ns  best-cost=%.4g  wall=%.1f s\n"
                status g d delay_ns best_cost wall_seconds
            | _ -> ())
          events;
        `Ok ()
      end)

let report_cmd =
  let trace_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE" ~doc:"JSONL trace written by spr route --trace.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Only validate the trace against the schema; print a one-line verdict.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Validate a stored JSONL trace and re-render its dynamics tables (Figure 6).")
    Term.(ret (const report_trace $ trace_file $ check))

(* --- selfcheck (property-based differential testing) --- *)

let selfcheck seeds n_ops cells tracks =
  if n_ops < 0 then `Error (false, "--ops must be >= 0")
  else if cells < 2 || tracks < 1 then `Error (false, "--cells must be >= 2 and --tracks >= 1")
  else begin
  let spec = Spr_check.Spr_ops.spec ~n_cells:cells ~tracks () in
  let seeds = if seeds = [] then [ 1; 2; 3; 4; 5 ] else seeds in
  Printf.printf "property: %d seed(s) x %d random ops on a %d-cell circuit (%d tracks)\n%!"
    (List.length seeds) n_ops cells tracks;
  match Spr_check.Prop.run ~seeds ~n_ops spec with
  | Ok () ->
    Printf.printf "selfcheck passed: every audit clean after every op\n";
    `Ok ()
  | Error f -> `Error (false, Spr_check.Prop.failure_to_string spec f)
  end

let selfcheck_cmd =
  let seeds =
    Arg.(value & opt_all int []
         & info [ "seed" ] ~docv:"N" ~doc:"Seed to test (repeatable; default 1-5).")
  in
  let ops =
    Arg.(value & opt int 60 & info [ "ops" ] ~docv:"N" ~doc:"Random operations per seed.")
  in
  let cells =
    Arg.(value & opt int 44 & info [ "cells" ] ~docv:"N" ~doc:"Synthetic circuit size.")
  in
  let tracks =
    Arg.(value & opt int 14 & info [ "tracks" ] ~docv:"N" ~doc:"Horizontal tracks per channel.")
  in
  Cmd.v
    (Cmd.info "selfcheck"
       ~doc:"Property-based differential test: random op sequences against the full-state \
             auditors, with automatic shrinking of failures.")
    Term.(ret (const selfcheck $ seeds $ ops $ cells $ tracks))

(* --- min-tracks --- *)

let min_tracks circuit seed =
  match circuit with
  | None -> `Error (false, "provide --circuit NAME")
  | Some name -> (
    match Spr_netlist.Circuits.find name with
    | None -> `Error (false, "unknown circuit " ^ name)
    | Some spec ->
      let row =
        Spr_experiments.Wirability_table.run_circuit ~effort:Spr_experiments.Profiles.Quick
          ~seed spec
      in
      print_string (Spr_experiments.Wirability_table.render [ row ]);
      `Ok ())

let min_tracks_cmd =
  Cmd.v
    (Cmd.info "min-tracks" ~doc:"Find the minimum tracks/channel for 100% wirability (Table 2).")
    Term.(ret (const min_tracks $ circuit_arg $ seed_arg))

(* --- dynamics --- *)

let dynamics circuit seed effort =
  let name = match circuit with Some c -> c | None -> "s1" in
  match Spr_netlist.Circuits.find name with
  | None -> `Error (false, "unknown circuit " ^ name)
  | Some _ ->
    let t = Spr_experiments.Dynamics_fig.run ~effort ~seed ~circuit:name () in
    print_string (Spr_experiments.Dynamics_fig.render t);
    `Ok ()

(* --- partition --- *)

let partition file circuit k seed =
  match load_netlist ~file ~circuit with
  | Error e -> `Error (false, e)
  | Ok nl ->
    let rng = Spr_util.Rng.create seed in
    let parts = Spr_partition.Multi_chip.kway ~rng ~k nl in
    let split = Spr_partition.Multi_chip.split nl ~parts ~n_parts:k in
    Format.printf "design: %a@." Spr_netlist.Netlist.pp_summary nl;
    Printf.printf "%d-way partition: %d cut nets, %d pads added\n" k
      split.Spr_partition.Multi_chip.cut_nets split.Spr_partition.Multi_chip.pads_added;
    Array.iteri
      (fun i piece ->
        Format.printf "chip %d: %a@." i Spr_netlist.Netlist.pp_summary
          piece.Spr_partition.Multi_chip.netlist)
      split.Spr_partition.Multi_chip.pieces;
    `Ok ()

let partition_cmd =
  let k =
    Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Number of chips (a power of two).")
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:"FM-partition a design across multiple FPGAs and report the cut.")
    Term.(ret (const partition $ file_arg $ circuit_arg $ k $ seed_arg))

let stats_nl file circuit =
  match load_netlist ~file ~circuit with
  | Error e -> `Error (false, e)
  | Ok nl -> (
    match Spr_netlist.Netlist_stats.collect nl with
    | Error e -> `Error (false, e)
    | Ok stats ->
      Format.printf "%a" Spr_netlist.Netlist_stats.pp stats;
      `Ok ())

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print structural statistics of a circuit.")
    Term.(ret (const stats_nl $ file_arg $ circuit_arg))

let dynamics_cmd =
  Cmd.v
    (Cmd.info "dynamics" ~doc:"Trace the annealing dynamics per temperature (Figure 6).")
    Term.(ret (const dynamics $ circuit_arg $ seed_arg $ effort_arg))

(* --- serve / submit / jobs: the persistent P&R job service --- *)

let state_dir_arg =
  Arg.(
    value
    & opt string ".spr-serve"
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:"Service state directory: job records, run directories, snapshots. Everything the \
              daemon needs to recover after a crash lives here.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (default $(b,STATE-DIR/serve.sock)).")

let serve state_dir socket workers max_queue job_timeout kill_grace drain_grace =
  if workers < 1 then `Error (false, "--workers must be >= 1")
  else if max_queue < 1 then `Error (false, "--max-queue must be >= 1")
  else begin
    Spr_serve.Daemon.run
      {
        Spr_serve.Daemon.state_dir;
        socket_path = socket;
        max_workers = workers;
        max_queue;
        default_time_budget = job_timeout;
        kill_grace;
        drain_grace;
        timeout_slack = 5.0;
      };
    `Ok ()
  end

let serve_cmd =
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Concurrent worker processes.")
  in
  let max_queue =
    Arg.(value & opt int 16
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Queued-job bound; submissions beyond it are rejected with a suggested backoff.")
  in
  let job_timeout =
    Arg.(value & opt (some float) None
         & info [ "job-timeout" ] ~docv:"SECONDS"
             ~doc:"Default wall-clock budget for jobs that do not set one. The worker stops \
                   itself gracefully at the budget; the daemon adds a hard backstop.")
  in
  let kill_grace =
    Arg.(value & opt float 5.0
         & info [ "kill-grace" ] ~docv:"SECONDS"
             ~doc:"Grace between SIGTERM and SIGKILL when stopping a worker.")
  in
  let drain_grace =
    Arg.(value & opt float 10.0
         & info [ "drain-grace" ] ~docv:"SECONDS"
             ~doc:"How long a SIGTERM drain waits for workers to checkpoint before killing them.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the fault-tolerant place-and-route job daemon. Jobs survive daemon crashes: \
             on restart, interrupted runs resume from their snapshots bit-identically.")
    Term.(
      ret
        (const serve $ state_dir_arg $ socket_arg $ workers $ max_queue $ job_timeout
        $ kill_grace $ drain_grace))

let require_socket socket =
  match socket with
  | Some s -> Ok s
  | None ->
    if Sys.file_exists (Filename.concat ".spr-serve" "serve.sock") then
      Ok (Filename.concat ".spr-serve" "serve.sock")
    else Error "provide --socket PATH (no ./.spr-serve/serve.sock found)"

let submit spec_flags socket quiet =
  match
    Result.bind (require_socket socket) (fun socket ->
        Result.map (fun spec -> (socket, spec)) (fresh_spec spec_flags))
  with
  | Error e -> `Error (false, e)
  | Ok (socket, spec) -> (
    let on_event ev =
      if not quiet then begin
        let open Spr_obs.Trace in
        match ev.ev with
        | Exchange { round; from_replica; metric } ->
          Printf.printf "exchange round %d: replica %d leads (metric %.4g)\n%!" round
            from_replica metric
        | Replica_end { status; g; d; delay_ns; _ } ->
          Printf.printf "replica %d: %s  G=%d D=%d  critical=%.2f ns\n%!" ev.ev_replica status
            g d delay_ns
        | _ -> ()
      end
    in
    match Spr_serve.Client.open_submit ~socket spec with
    | Error (`Rejected (Spr_serve.Protocol.Overloaded { queued; backoff_s })) ->
      `Error
        (false, Printf.sprintf "rejected: %d jobs queued; retry in ~%.0f s" queued backoff_s)
    | Error (`Rejected Spr_serve.Protocol.Draining) ->
      `Error (false, "rejected: daemon is draining")
    | Error (`Rejected (Spr_serve.Protocol.Invalid msg)) -> `Error (false, "rejected: " ^ msg)
    | Error (`Error e) -> `Error (false, e)
    | Ok (fd, id) -> (
      Printf.printf "accepted as %s\n%!" id;
      match Spr_serve.Client.await ~on_event fd with
      | Ok (Spr_serve.Protocol.Job_done { status; _ }) ->
        Printf.printf "%s: %s\n" id status;
        `Ok ()
      | Ok (Spr_serve.Protocol.Job_failed { error; _ }) ->
        `Error (false, Printf.sprintf "%s failed: %s" id error)
      | Ok (Spr_serve.Protocol.Job_parked { message; _ }) ->
        `Error (false, Printf.sprintf "%s parked: %s" id message)
      | Ok (Spr_serve.Protocol.Job_cancelled _) -> `Error (false, Printf.sprintf "%s cancelled" id)
      | Ok _ -> `Error (false, "unexpected terminal reply")
      | Error e -> `Error (false, e)))

let submit_cmd =
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress streamed progress events.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a place-and-route job to a running $(b,spr serve) daemon and stream its \
             progress until it finishes. The job takes $(b,route)'s run flags.")
    Term.(ret (const submit $ spec_term $ socket_arg $ quiet))

let jobs_cli socket cancel =
  match require_socket socket with
  | Error e -> `Error (false, e)
  | Ok socket -> (
    match cancel with
    | Some id -> (
      match Spr_serve.Client.cancel ~socket id with
      | Ok (Spr_serve.Protocol.Job_cancelled id) ->
        Printf.printf "%s: cancellation requested\n" id;
        `Ok ()
      | Ok (Spr_serve.Protocol.Error e) -> `Error (false, e)
      | Ok _ -> `Error (false, "unexpected reply")
      | Error e -> `Error (false, e))
    | None -> (
      match Spr_serve.Client.jobs ~socket with
      | Error e -> `Error (false, e)
      | Ok [] ->
        Printf.printf "no jobs\n";
        `Ok ()
      | Ok rows ->
        List.iter
          (fun r ->
            Printf.printf "%-14s %-12s %s\n" r.Spr_serve.Protocol.row_id
              r.Spr_serve.Protocol.row_label r.Spr_serve.Protocol.row_state)
          rows;
        `Ok ()))

(* --- flows: sweep flow presets over circuits and seeds --- *)

let flows_cli flows circuits seeds effort tracks output =
  let flows =
    if flows = [] then Spr_experiments.Flows_sweep.default_flows else flows
  in
  let circuits =
    if circuits = [] then Spr_experiments.Flows_sweep.default_circuits else circuits
  in
  let seeds = if seeds = [] then [ 1; 2 ] else seeds in
  match
    List.filter_map
      (fun f -> match Spr_flow.stages_of_preset f with Ok _ -> None | Error e -> Some e)
      flows
  with
  | e :: _ -> `Error (false, e)
  | [] ->
    let rows = Spr_experiments.Flows_sweep.run ~effort ~tracks ~flows ~circuits ~seeds () in
    print_string (Spr_experiments.Flows_sweep.render rows);
    let cmp = Spr_experiments.Flows_sweep.compare_seeded rows in
    if cmp.Spr_experiments.Flows_sweep.cells > 0 then
      Printf.printf
        "ap+sa vs sa over %d circuit-seed cells: %.2fx the annealing moves, quality held on %d\n"
        cmp.Spr_experiments.Flows_sweep.cells cmp.Spr_experiments.Flows_sweep.move_ratio
        cmp.Spr_experiments.Flows_sweep.quality_held;
    Spr_util.Persist.atomic_write output
      (Spr_obs.Json.to_string ~indent:true
         (Spr_experiments.Flows_sweep.to_json ~effort rows)
      ^ "\n");
    Printf.printf "flow sweep written to %s\n" output;
    `Ok ()

let flows_cmd =
  let flows =
    Arg.(value & opt_all string []
         & info [ "flow" ] ~docv:"FLOW"
             ~doc:"Flow preset to sweep (repeatable); default: every registered preset.")
  in
  let circuits =
    Arg.(value & opt_all string []
         & info [ "circuit" ] ~docv:"NAME"
             ~doc:"Benchmark circuit to sweep (repeatable); default: s1 and bw.")
  in
  let seeds =
    Arg.(value & opt_all int []
         & info [ "seed" ] ~docv:"N" ~doc:"Seed to sweep (repeatable); default: 1 and 2.")
  in
  let output =
    Arg.(value & opt string "BENCH_flows.json"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"JSON output path.")
  in
  Cmd.v
    (Cmd.info "flows"
       ~doc:"Sweep flow presets across circuits and seeds, comparing the analytically seeded \
             anneal against the cold-start one, and write the table as JSON.")
    Term.(ret (const flows_cli $ flows $ circuits $ seeds $ effort_arg $ tracks_arg $ output))

let jobs_cmd =
  let cancel =
    Arg.(value & opt (some string) None
         & info [ "cancel" ] ~docv:"ID" ~doc:"Cancel the given job instead of listing.")
  in
  Cmd.v
    (Cmd.info "jobs" ~doc:"List (or cancel) jobs on a running $(b,spr serve) daemon.")
    Term.(ret (const jobs_cli $ socket_arg $ cancel))

let () =
  let info =
    Cmd.info "spr" ~version:"1.0.0"
      ~doc:"Performance-driven simultaneous place and route for row-based FPGAs (DAC 1994)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            route_cmd;
            report_cmd;
            min_tracks_cmd;
            dynamics_cmd;
            partition_cmd;
            stats_cmd;
            selfcheck_cmd;
            serve_cmd;
            submit_cmd;
            jobs_cmd;
            flows_cmd;
          ]))
