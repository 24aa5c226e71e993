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
   --parallel/--exchange/--scheduler/--race-*; [route] below is the
   single place they merge into a Tool.Config. *)

open Cmdliner

let load_netlist ~file ~circuit =
  match file, circuit with
  | Some path, _ -> Spr_netlist.Blif.parse_file path
  | None, Some name -> (
    match Spr_netlist.Circuits.find name with
    | Some spec -> Ok (Spr_netlist.Circuits.make spec)
    | None ->
      Error
        (Printf.sprintf "unknown circuit %s (try: %s)" name
           (String.concat ", "
              (List.map
                 (fun s -> s.Spr_netlist.Circuits.spec_name)
                 Spr_netlist.Circuits.all))))
  | None, None -> Error "provide a BLIF file or --circuit NAME"

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"BLIF" ~doc:"Input netlist in BLIF format.")

let circuit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "circuit" ] ~docv:"NAME" ~doc:"Built-in benchmark circuit (s1, cse, ex1, bw, s1a, big529).")

let tracks_arg =
  Arg.(value & opt int 28 & info [ "tracks" ] ~docv:"N" ~doc:"Horizontal tracks per channel.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let scheme_arg =
  let parse s =
    match Spr_arch.Segmentation.scheme_of_string s with
    | Some scheme -> Ok scheme
    | None -> Error (`Msg (Printf.sprintf "bad segmentation %S (full|uniform:<n>|actel|geometric)" s))
  in
  let print ppf s = Format.pp_print_string ppf (Spr_arch.Segmentation.scheme_to_string s) in
  Arg.(
    value
    & opt (conv (parse, print)) Spr_arch.Segmentation.Actel_like
    & info [ "segmentation" ] ~docv:"SCHEME" ~doc:"Channel segmentation scheme.")

let effort_arg =
  let parse s =
    match Spr_experiments.Profiles.effort_of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg "effort is quick|standard|thorough")
  in
  let print ppf = function
    | Spr_experiments.Profiles.Quick -> Format.pp_print_string ppf "quick"
    | Spr_experiments.Profiles.Standard -> Format.pp_print_string ppf "standard"
    | Spr_experiments.Profiles.Thorough -> Format.pp_print_string ppf "thorough"
  in
  Arg.(
    value
    & opt (conv (parse, print)) Spr_experiments.Profiles.Standard
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

(* --- route --- *)

let report_sim nl (r : Spr_core.Tool.result) =
  Printf.printf "simultaneous: routed=%b (G=%d D=%d)  critical=%.2f ns  cpu=%.1f s\n"
    r.Spr_core.Tool.fully_routed r.Spr_core.Tool.g r.Spr_core.Tool.d
    r.Spr_core.Tool.critical_delay r.Spr_core.Tool.cpu_seconds;
  let path = Spr_timing.Sta.critical_path r.Spr_core.Tool.sta in
  Printf.printf "critical path: %s\n"
    (String.concat " -> "
       (List.map (fun c -> (Spr_netlist.Netlist.cell nl c).Spr_netlist.Netlist.cell_name) path))

let report_flow ~flow nl (r : Spr_flow.result) =
  List.iter
    (fun s ->
      Printf.printf "  stage %-7s %7.1f s  %s\n" s.Spr_flow.sg_name s.Spr_flow.sg_seconds
        s.Spr_flow.sg_detail)
    r.Spr_flow.f_stages;
  (match r.Spr_flow.f_seed_temperature with
  | Some t -> Printf.printf "  seeded anneal start temperature %.4g\n" t
  | None -> ());
  Printf.printf "flow %-16s routed=%b (G=%d D=%d)  critical=%.2f ns  %.1f s\n" flow
    r.Spr_flow.f_fully_routed r.Spr_flow.f_g r.Spr_flow.f_d r.Spr_flow.f_critical_delay
    (Spr_flow.stage_seconds r);
  let path = Spr_timing.Sta.critical_path r.Spr_flow.f_sta in
  Printf.printf "critical path: %s\n"
    (String.concat " -> "
       (List.map (fun c -> (Spr_netlist.Netlist.cell nl c).Spr_netlist.Netlist.cell_name) path))

(* Layout-facing outputs shared by every flow: stats, SVG, checkpoint,
   ASCII die plot and the worst-endpoints table need only the routed
   state and its STA, whatever produced them. *)
let post_layout nl ~route ~sta ~svg ~checkpoint ~ascii ~stats ~report_k ~clock =
  if stats then
    Format.printf "%a" Spr_route.Route_stats.pp (Spr_route.Route_stats.collect route);
  (match svg with
  | None -> ()
  | Some path ->
    let hot = Spr_render.Die_plot.critical_nets sta route in
    Spr_render.Die_plot.save_svg ~highlight:hot route path;
    Printf.printf "die plot written to %s\n" path);
  (match checkpoint with
  | None -> ()
  | Some path ->
    Spr_core.Checkpoint.save route path;
    Printf.printf "checkpoint written to %s\n" path);
  if ascii then print_string (Spr_render.Die_plot.to_ascii route);
  match report_k with
  | None -> ()
  | Some k ->
    let paths = Spr_timing.Path_report.worst_paths ~k ?clock_period:clock sta in
    Printf.printf "\nworst %d endpoints:\n%s" k (Spr_timing.Path_report.render nl paths)

(* A run directory holds everything needed to continue an interrupted
   run: the design itself, the fabric/config parameters, and the rotated
   v2 snapshots the tool writes as it goes. *)

let meta_file dir = Filename.concat dir "meta"

let design_file dir = Filename.concat dir "design.blif"

(* Snapshots reference nets by id, and net ids come from netlist
   construction order, so resuming must rebuild the exact same netlist.
   A BLIF input is copied into the run dir byte-for-byte (re-parsing
   identical bytes is deterministic); a built-in circuit is recorded by
   name and rebuilt from its spec, because re-parsing a re-serialization
   can permute net ids. *)
type run_meta = {
  m_tracks : int;
  m_scheme : Spr_arch.Segmentation.scheme;
  m_seed : int;
  m_effort : Spr_experiments.Profiles.effort;
  m_parallel : int;
  m_exchange : Spr_anneal.Portfolio.exchange;
  m_scheduler : Spr_core.Tool.Config.scheduler;
  m_flow : string;
  m_circuit : string option;
}

let write_run_dir ~dir ~tracks ~scheme ~seed ~effort ~parallel ~exchange
    ~(scheduler : Spr_core.Tool.Config.scheduler) ~flow ~source nl =
  Spr_util.Persist.ensure_dir dir;
  (match source with
  | `File path ->
    (match Spr_util.Persist.read_file path with
    | Ok text -> Spr_util.Persist.atomic_write (design_file dir) text
    | Error _ ->
      Spr_util.Persist.atomic_write (design_file dir)
        (Spr_netlist.Blif.to_string ~model_name:"run" nl))
  | `Circuit _ ->
    Spr_util.Persist.atomic_write (design_file dir)
      (Spr_netlist.Blif.to_string ~model_name:"run" nl));
  let circuit_line = match source with `Circuit name -> "circuit " ^ name ^ "\n" | `File _ -> "" in
  Spr_util.Persist.atomic_write (meta_file dir)
    (Printf.sprintf
       "spr-run-meta 1\ntracks %d\nscheme %s\nseed %d\neffort %s\nparallel %d\nexchange %s\n\
        scheduler %s\nrace-margin %h\nrace-warmup %d\nrace-every %d\nflow %s\n%s"
       tracks
       (Spr_arch.Segmentation.scheme_to_string scheme)
       seed
       (Spr_experiments.Profiles.effort_to_string effort)
       parallel
       (Spr_anneal.Portfolio.exchange_to_string exchange)
       (Spr_core.Tool.Config.scheduler_to_string scheduler.kind)
       scheduler.race_margin scheduler.race_warmup scheduler.race_every flow circuit_line)

let read_run_meta dir =
  match Spr_util.Persist.read_file (meta_file dir) with
  | Error e -> Error (Printf.sprintf "%s: %s" (meta_file dir) e)
  | Ok text ->
    let fail fmt = Printf.ksprintf (fun m -> Error (meta_file dir ^ ": " ^ m)) fmt in
    let lines =
      String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
      |> List.map (fun l -> String.split_on_char ' ' (String.trim l))
    in
    (match lines with
    | [ "spr-run-meta"; "1" ] :: fields ->
      let find key =
        List.find_map (function [ k; v ] when k = key -> Some v | _ -> None) fields
      in
      (match find "tracks", find "scheme", find "seed", find "effort" with
      | Some tracks, Some scheme, Some seed, Some effort -> (
        match
          ( int_of_string_opt tracks,
            Spr_arch.Segmentation.scheme_of_string scheme,
            int_of_string_opt seed,
            Spr_experiments.Profiles.effort_of_string effort )
        with
        | Some tracks, Some scheme, Some seed, Some effort -> (
          (* Run dirs written before the portfolio existed have no
             parallel/exchange lines: a fleet of one, no exchange. *)
          let parallel =
            match find "parallel" with
            | None -> Some 1
            | Some p -> int_of_string_opt p
          in
          let exchange =
            match find "exchange" with
            | None -> Some Spr_anneal.Portfolio.Independent
            | Some x -> Result.to_option (Spr_anneal.Portfolio.exchange_of_string x)
          in
          match parallel, exchange with
          | Some parallel, Some exchange -> (
            (* Run dirs written before the flow engine existed carry no
               flow line: the plain simultaneous anneal. Ones written
               before the racing scheduler carry no scheduler lines: the
               barrier. *)
            let flow = Option.value (find "flow") ~default:"sa" in
            let d = Spr_core.Tool.Config.default.parallel.scheduler in
            let kind =
              match find "scheduler" with
              | None -> Ok `Barrier
              | Some s -> Spr_core.Tool.Config.scheduler_of_string s
            in
            match kind with
            | Error e -> fail "%s" e
            | Ok kind ->
              let num key of_string default =
                match find key with None -> Some default | Some v -> of_string v
              in
              (match
                 ( num "race-margin" float_of_string_opt d.race_margin,
                   num "race-warmup" int_of_string_opt d.race_warmup,
                   num "race-every" int_of_string_opt d.race_every )
               with
              | Some race_margin, Some race_warmup, Some race_every ->
                Ok
                  {
                    m_tracks = tracks;
                    m_scheme = scheme;
                    m_seed = seed;
                    m_effort = effort;
                    m_parallel = parallel;
                    m_exchange = exchange;
                    m_scheduler = { kind; race_margin; race_warmup; race_every };
                    m_flow = flow;
                    m_circuit = find "circuit";
                  }
              | _ -> fail "malformed race-* field"))
          | _ -> fail "malformed parallel/exchange field")
        | _ -> fail "malformed field value")
      | _ -> fail "missing tracks/scheme/seed/effort field")
    | _ -> fail "not a version-1 spr run-meta file")

(* The per-replica table and the fleet verdict; a fleet of one prints
   neither, its replica line being [report_sim]'s. *)
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

let run_sim ~(config : Spr_core.Tool.config) ?resume_dir ~selfcheck ~profile arch nl ~run_dir
    ~svg ~checkpoint ~ascii ~stats ~report_k ~clock =
  Spr_core.Tool.install_signal_handlers ();
  match Spr_core.Tool.run ~config ?resume_dir arch nl with
  | Error e -> Error ("simultaneous flow failed: " ^ Spr_core.Tool.error_to_string e)
  | Ok p ->
    report_fleet p;
    let r = Spr_core.Tool.best_result p in
    (match r.Spr_core.Tool.status with
    | Spr_core.Tool.Completed -> ()
    | Spr_core.Tool.Interrupted reason ->
      Printf.printf "interrupted (%s): best-so-far layout follows%s\n"
        (Spr_core.Tool.stop_reason_to_string reason)
        (match run_dir with
        | Some dir -> Printf.sprintf "; continue with: spr route --run-resume %s" dir
        | None -> ""));
    report_sim nl r;
    (match config.obs.trace_path with
    | Some path -> Printf.printf "trace written to %s\n" path
    | None -> ());
    (match config.obs.report_path with
    | Some path -> Printf.printf "report written to %s\n" path
    | None -> ());
    if profile then begin
      Format.printf "%a" Spr_core.Profile.pp r.Spr_core.Tool.profile;
      Format.printf "per-temperature phase times:@.%a" Spr_core.Dynamics.pp_phase_series
        r.Spr_core.Tool.dynamics
    end;
    let audit_ok =
      if not selfcheck then true
      else begin
        match Spr_core.Tool.audit_result r with
        | [] ->
          Printf.printf "selfcheck: zero audit findings\n";
          true
        | findings ->
          Printf.printf "selfcheck FAILED:\n%s\n" (Spr_check.Finding.summarize findings);
          false
      end
    in
    post_layout nl ~route:r.Spr_core.Tool.route ~sta:r.Spr_core.Tool.sta ~svg ~checkpoint
      ~ascii ~stats ~report_k ~clock;
    if audit_ok then Ok () else Error "selfcheck reported audit findings"

(* Multi-stage flows go through the flow engine; [--flow sa] is the one
   [Tool.run] in [run_sim] above. *)
let run_flow ~flow ~(config : Spr_core.Tool.config) ?resume_dir arch nl ~svg ~checkpoint ~ascii
    ~stats ~report_k ~clock =
  Spr_core.Tool.install_signal_handlers ();
  match Spr_flow.run ~config ?resume_dir arch nl with
  | Error e ->
    Error (Printf.sprintf "flow %s failed: %s" flow (Spr_core.Tool.error_to_string e))
  | Ok r ->
    Option.iter report_fleet r.Spr_flow.f_fleet;
    report_flow ~flow nl r;
    (match config.obs.trace_path with
    | Some path -> Printf.printf "trace written to %s\n" path
    | None -> ());
    (match config.obs.report_path with
    | Some path when r.Spr_flow.f_fleet <> None ->
      Printf.printf "report written to %s\n" path
    | _ -> ());
    post_layout nl ~route:r.Spr_flow.f_route ~sta:r.Spr_flow.f_sta ~svg ~checkpoint ~ascii
      ~stats ~report_k ~clock;
    Ok ()

(* The single flag→Config mapping: every route invocation (fresh or
   resumed) builds its Tool.Config here and nowhere else. *)
let cli_config config ~time_budget ~max_moves ~run_dir ~snapshot_every ~snapshot_keep
    ~selfcheck ~parallel ~exchange ~scheduler ~trace ~report_file ~label =
  let open Spr_core.Tool.Config in
  config
  |> (if selfcheck then with_validate true else Fun.id)
  |> with_budget { time_budget; max_moves; stop_after_accepted = None; poll = None }
  |> with_persistence { run_dir; snapshot_every; snapshot_keep; final_checkpoint = true }
  |> with_replicas ~exchange parallel
  |> with_scheduler scheduler
  |> with_obs
       {
         record = trace <> None;
         trace_path = trace;
         report_path = report_file;
         label = Some label;
         on_event = None;
       }

let resume_route dir ~time_budget ~max_moves ~snapshot_every ~snapshot_keep ~selfcheck ~profile
    ~svg ~checkpoint ~ascii ~stats ~report_k ~clock ~trace ~report_file ~stage_budgets =
  match read_run_meta dir with
  | Error e -> `Error (false, "resume failed: " ^ e)
  | Ok m -> (
    let { m_tracks = tracks; m_scheme = scheme; m_seed = seed; m_effort = effort;
          m_parallel = parallel; m_exchange = exchange; m_scheduler = scheduler;
          m_flow = flow; m_circuit = circuit } = m
    in
    match
      match circuit with
      | Some name -> load_netlist ~file:None ~circuit:(Some name)
      | None -> Spr_netlist.Blif.parse_file (design_file dir)
    with
    | Error e -> `Error (false, "resume failed: " ^ e)
    | Ok nl ->
      let n = Spr_netlist.Netlist.n_cells nl in
      Format.printf "circuit: %a@." Spr_netlist.Netlist.pp_summary nl;
      let arch = Spr_arch.Arch.size_for ~tracks ~hscheme:scheme nl in
      Format.printf "fabric:  %a@." Spr_arch.Arch.pp arch;
      let config =
        cli_config
          (Spr_experiments.Profiles.tool_config ~seed effort ~n)
          ~time_budget ~max_moves ~run_dir:(Some dir) ~snapshot_every ~snapshot_keep ~selfcheck
          ~parallel ~exchange ~scheduler ~trace ~report_file
          ~label:(Option.value circuit ~default:"run")
      in
      (* Each replica continues from its own newest loadable snapshot
         (or restarts from scratch without one) and recorded rounds
         replay from the run directory; a multi-stage flow first skips
         the stages flow.json records as done. *)
      Printf.printf "resuming flow %s with %d replica%s from %s\n%!" flow parallel
        (if parallel = 1 then "" else "s")
        dir;
      let outcome =
        if flow = "sa" then
          run_sim ~config ~resume_dir:dir ~selfcheck ~profile arch nl ~run_dir:(Some dir) ~svg
            ~checkpoint ~ascii ~stats ~report_k ~clock
        else
          let config =
            List.fold_left
              (fun c (stage, b) -> Spr_core.Tool.Config.with_stage_budget stage b c)
              (Spr_core.Tool.Config.with_flow_preset flow config)
              stage_budgets
          in
          run_flow ~flow ~config ~resume_dir:dir arch nl ~svg ~checkpoint ~ascii ~stats
            ~report_k ~clock
      in
      match outcome with Ok () -> `Ok () | Error e -> `Error (false, e))

(* --stage-budget is repeatable: each occurrence is STAGE=SECONDS. *)
let parse_stage_budgets specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
      match String.index_opt s '=' with
      | None -> Error (Printf.sprintf "--stage-budget %s: expected STAGE=SECONDS" s)
      | Some i -> (
        let stage = String.sub s 0 i in
        let v = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt v with
        | None -> Error (Printf.sprintf "--stage-budget %s: %s is not a number" s v)
        | Some b -> go ((stage, b) :: acc) rest))
  in
  go [] specs

let route file circuit tracks scheme seed effort flow stage_budget_specs selfcheck profile svg
    checkpoint ascii stats report_file endpoints clock trace run_dir resume time_budget
    max_moves snapshot_every snapshot_keep parallel exchange kind race_margin race_warmup
    race_every =
  let report_k = endpoints in
  let scheduler = { Spr_core.Tool.Config.kind; race_margin; race_warmup; race_every } in
  match parse_stage_budgets stage_budget_specs with
  | Error e -> `Error (false, e)
  | Ok stage_budgets -> (
  if parallel < 1 then `Error (false, "--parallel must be >= 1")
  else
  match resume with
  | Some dir ->
    if file <> None || circuit <> None then
      `Error (false, "--run-resume continues a saved run; do not also give a design")
    else
      resume_route dir ~time_budget ~max_moves ~snapshot_every ~snapshot_keep ~selfcheck
        ~profile ~svg ~checkpoint ~ascii ~stats ~report_k ~clock ~trace ~report_file
        ~stage_budgets
  | None -> (
    match load_netlist ~file ~circuit with
    | Error e -> `Error (false, e)
    | Ok nl ->
      let n = Spr_netlist.Netlist.n_cells nl in
      Format.printf "circuit: %a@." Spr_netlist.Netlist.pp_summary nl;
      let arch = Spr_arch.Arch.size_for ~tracks ~hscheme:scheme nl in
      Format.printf "fabric:  %a@." Spr_arch.Arch.pp arch;
      (match run_dir with
      | Some dir ->
        let source =
          match file, circuit with
          | Some path, _ -> `File path
          | None, Some name -> `Circuit name
          | None, None -> assert false (* load_netlist succeeded *)
        in
        write_run_dir ~dir ~tracks ~scheme ~seed ~effort ~parallel ~exchange ~scheduler ~flow
          ~source nl
      | None -> ());
      let errors = ref [] in
      let note = function Ok () -> () | Error e -> errors := e :: !errors in
      let label =
        match circuit, file with
        | Some name, _ -> name
        | None, Some path -> Filename.remove_extension (Filename.basename path)
        | None, None -> "run"
      in
      let base_config () =
        cli_config
          (Spr_experiments.Profiles.tool_config ~seed effort ~n)
          ~time_budget ~max_moves ~run_dir ~snapshot_every ~snapshot_keep ~selfcheck ~parallel
          ~exchange ~scheduler ~trace ~report_file ~label
      in
      (match flow with
      | "sa" ->
        (* The classic path. A --stage-budget sa=S here is just the run's
           time budget under another spelling. *)
        let config =
          match time_budget, List.assoc_opt "sa" stage_budgets with
          | None, Some b -> Spr_core.Tool.Config.with_time_budget b (base_config ())
          | _ -> base_config ()
        in
        note
          (run_sim ~config ~selfcheck ~profile arch nl ~run_dir ~svg ~checkpoint ~ascii ~stats
             ~report_k ~clock)
      | preset ->
        let config =
          List.fold_left
            (fun c (stage, b) -> Spr_core.Tool.Config.with_stage_budget stage b c)
            (Spr_core.Tool.Config.with_flow_preset preset (base_config ()))
            stage_budgets
        in
        note
          (run_flow ~flow:preset ~config arch nl ~svg ~checkpoint ~ascii ~stats ~report_k
             ~clock));
      (match !errors with
      | [] -> `Ok ()
      | errs -> `Error (false, String.concat "\n" (List.rev errs)))))

let route_cmd =
  let obs_docs = "OBSERVABILITY OPTIONS" in
  let run_docs = "RUN PERSISTENCE OPTIONS" in
  let sched_docs = "FLEET SCHEDULING OPTIONS" in
  let flow =
    Arg.(value & opt string "sa"
         & info [ "flow" ] ~docv:"FLOW"
             ~doc:"Flow preset: $(b,sa) (the simultaneous anneal), $(b,ap+sa) (analytical seed \
                   placement, then the anneal at reduced temperature), $(b,ap+greedy+route), \
                   $(b,seq) (the sequential baseline), or any +-joined chain of stages \
                   (ap, sa, greedy, route, sta).")
  in
  let stage_budget =
    Arg.(value & opt_all string []
         & info [ "stage-budget" ] ~docv:"STAGE=SECONDS"
             ~doc:"Wall-clock budget for one flow stage (repeatable), e.g. --stage-budget ap=5 \
                   --stage-budget sa=60.")
  in
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
  let report_arg =
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
             ~doc:"Audit the incremental state against from-scratch recomputation during and \
                   after the run (placement bijection, routing mirrors, STA diff).")
  in
  let profile =
    Arg.(value & flag
         & info [ "obs-profile" ] ~docs:obs_docs
             ~doc:"Print the per-phase move-pipeline breakdown (propose, rip-up, reroute, \
                   retime, decide) and per-temperature phase times after the run.")
  in
  let run_dir =
    Arg.(value & opt (some string) None
         & info [ "run-dir" ] ~docv:"DIR" ~docs:run_docs
             ~doc:"Write crash-safe resumable snapshots (and the design) into $(docv) as the \
                   run progresses.")
  in
  let resume =
    Arg.(value & opt (some dir) None
         & info [ "run-resume" ] ~docv:"DIR" ~docs:run_docs
             ~doc:"Continue an interrupted run from the newest good snapshot in $(docv).")
  in
  let time_budget =
    Arg.(value & opt (some float) None
         & info [ "time-budget" ] ~docv:"SECS"
             ~doc:"Stop gracefully after $(docv) wall seconds and keep the best layout so far.")
  in
  let max_moves =
    Arg.(value & opt (some int) None
         & info [ "max-moves" ] ~docv:"N"
             ~doc:"Stop gracefully after $(docv) annealing moves (cumulative across resumes).")
  in
  let snapshot_every =
    Arg.(value & opt int 1
         & info [ "run-snapshot-every" ] ~docv:"N" ~docs:run_docs
             ~doc:"With --run-dir, snapshot every $(docv) temperature boundaries.")
  in
  let snapshot_keep =
    Arg.(value & opt int 3
         & info [ "run-snapshot-keep" ] ~docv:"K" ~docs:run_docs
             ~doc:"With --run-dir, keep the newest $(docv) snapshots.")
  in
  let parallel =
    Arg.(value & opt int 1
         & info [ "parallel" ] ~docv:"K"
             ~doc:"Anneal $(docv) independent replicas in parallel (one per domain) and keep \
                   the best result. $(docv)=1 is the plain serial run.")
  in
  let exchange =
    let parse s =
      match Spr_anneal.Portfolio.exchange_of_string s with
      | Ok x -> Ok x
      | Error e -> Error (`Msg e)
    in
    let print ppf x = Format.pp_print_string ppf (Spr_anneal.Portfolio.exchange_to_string x) in
    Arg.(
      value
      & opt (conv (parse, print)) Spr_anneal.Portfolio.Independent
      & info [ "exchange" ] ~docv:"POLICY" ~docs:sched_docs
          ~doc:"Portfolio exchange policy: $(b,independent), or $(b,best:N) to broadcast the \
                portfolio-best layout to lagging replicas every N temperature boundaries \
                ($(b,barrier) scheduler only).")
  in
  let scheduler =
    let parse s =
      match Spr_core.Tool.Config.scheduler_of_string s with
      | Ok v -> Ok v
      | Error e -> Error (`Msg e)
    in
    let print ppf kind =
      Format.pp_print_string ppf (Spr_core.Tool.Config.scheduler_to_string kind)
    in
    Arg.(
      value
      & opt (conv (parse, print)) `Barrier
      & info [ "scheduler" ] ~docv:"POLICY" ~docs:sched_docs
          ~doc:"Replica scheduler for $(b,--parallel) fleets: $(b,barrier) (every replica runs \
                to completion, coordinated only by $(b,--exchange)), $(b,racing) (fit an online \
                predictor on each replica's annealing dynamics and early-kill replicas whose \
                predicted final quality trails the fleet leader, reallocating their domains to \
                perturbed forks of the leader; deterministic and resumable).")
  in
  let race_margin =
    Arg.(value & opt float 1.0
         & info [ "race-margin" ] ~docv:"NETS" ~docs:sched_docs
             ~doc:"Racing kill threshold, in unrouted-net units: a replica is killed only when \
                   its predicted final quality trails the leader's by more than $(docv) plus \
                   both predictions' uncertainties.")
  in
  let race_warmup =
    Arg.(value & opt int 10
         & info [ "race-warmup" ] ~docv:"N" ~docs:sched_docs
             ~doc:"Temperature steps before the first racing decision round.")
  in
  let race_every =
    Arg.(value & opt int 5
         & info [ "race-every" ] ~docv:"N" ~docs:sched_docs
             ~doc:"Temperature steps between racing decision rounds.")
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Place and route a circuit on a row-based fabric.")
    Term.(
      ret
        (const route $ file_arg $ circuit_arg $ tracks_arg $ scheme_arg $ seed_arg $ effort_arg
        $ flow $ stage_budget $ selfcheck $ profile $ svg $ checkpoint $ ascii
        $ stats $ report_arg $ endpoints $ clock $ trace
        $ run_dir $ resume $ time_budget $ max_moves
        $ snapshot_every $ snapshot_keep $ parallel $ exchange $ scheduler $ race_margin
        $ race_warmup $ race_every))

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

let submit file circuit tracks scheme seed effort flow parallel exchange scheduler time_budget
    max_moves socket quiet =
  match require_socket socket with
  | Error e -> `Error (false, e)
  | Ok socket -> (
    let label =
      match circuit, file with
      | Some name, _ -> name
      | None, Some path -> Filename.remove_extension (Filename.basename path)
      | None, None -> "job"
    in
    let blif =
      match file with
      | None -> Ok None
      | Some path -> (
        match Spr_util.Persist.read_file path with
        | Ok text -> Ok (Some text)
        | Error e -> Error e)
    in
    match blif with
    | Error e -> `Error (false, e)
    | Ok blif -> (
      let spec =
        {
          Spr_serve.Job.label;
          circuit;
          blif;
          tracks;
          scheme = Spr_arch.Segmentation.scheme_to_string scheme;
          seed;
          effort = Spr_experiments.Profiles.effort_to_string effort;
          flow;
          replicas = parallel;
          exchange;
          scheduler;
          time_budget;
          max_moves;
        }
      in
      let on_event ev =
        if not quiet then begin
          let open Spr_obs.Trace in
          match ev.ev with
          | Exchange { round; from_replica; metric } ->
            Printf.printf "exchange round %d: replica %d leads (metric %.4g)\n%!" round
              from_replica metric
          | Replica_end { status; g; d; delay_ns; _ } ->
            Printf.printf "replica %d: %s  G=%d D=%d  critical=%.2f ns\n%!" ev.ev_replica
              status g d delay_ns
          | _ -> ()
        end
      in
      match Spr_serve.Client.open_submit ~socket spec with
      | Error (`Rejected (Spr_serve.Protocol.Overloaded { queued; backoff_s })) ->
        `Error
          ( false,
            Printf.sprintf "rejected: %d jobs queued; retry in ~%.0f s" queued backoff_s )
      | Error (`Rejected Spr_serve.Protocol.Draining) ->
        `Error (false, "rejected: daemon is draining")
      | Error (`Rejected (Spr_serve.Protocol.Invalid msg)) ->
        `Error (false, "rejected: " ^ msg)
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
        | Ok (Spr_serve.Protocol.Job_cancelled _) ->
          `Error (false, Printf.sprintf "%s cancelled" id)
        | Ok _ -> `Error (false, "unexpected terminal reply")
        | Error e -> `Error (false, e))))

let submit_cmd =
  let parallel =
    Arg.(value & opt int 1
         & info [ "parallel" ] ~docv:"K" ~doc:"Portfolio width (annealing replicas).")
  in
  let exchange =
    Arg.(value & opt string "independent"
         & info [ "exchange" ] ~docv:"POLICY"
             ~doc:"Portfolio exchange policy: $(b,independent) or $(b,best:N).")
  in
  let scheduler =
    Arg.(value & opt string "barrier"
         & info [ "scheduler" ] ~docv:"SCHED"
             ~doc:"Fleet scheduler: $(b,barrier) or $(b,racing).")
  in
  let time_budget =
    Arg.(value & opt (some float) None
         & info [ "time-budget" ] ~docv:"SECONDS" ~doc:"Wall-clock budget for the run.")
  in
  let max_moves =
    Arg.(value & opt (some int) None
         & info [ "max-moves" ] ~docv:"N" ~doc:"Move budget for the run.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress streamed progress events.")
  in
  let flow =
    Arg.(value & opt string "sa"
         & info [ "flow" ] ~docv:"FLOW"
             ~doc:"Flow preset the worker runs: $(b,sa), $(b,ap+sa), $(b,ap+greedy+route), \
                   $(b,seq), or any +-joined stage chain.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a place-and-route job to a running $(b,spr serve) daemon and stream its \
             progress until it finishes.")
    Term.(
      ret
        (const submit $ file_arg $ circuit_arg $ tracks_arg $ scheme_arg $ seed_arg $ effort_arg
        $ flow $ parallel $ exchange $ scheduler $ time_budget $ max_moves $ socket_arg $ quiet))

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
