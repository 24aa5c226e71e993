(* The ledger's workloads, how one run of each drives [spr route], and
   the checks every run's outputs must pass. *)

module Report = Spr_obs.Report

type source =
  | Circuit of string  (** a built-in circuit, [--circuit NAME] *)
  | Generated of int  (** a BLIF the ledger generates with this many cells *)

type t = {
  name : string;
  source : source;
  tracks : int;
  max_moves : int;  (** per replica *)
  replicas : int;
}

(* Every workload runs under a move budget: a run to completion does a
   seed-dependent number of moves (62.8k to 83.6k on s1), so its wall
   clock would measure the seed as much as the code. README.md says why
   each workload is here. *)
let all =
  [
    { name = "s1-serial"; source = Circuit "s1"; tracks = 28; max_moves = 20_000; replicas = 1 };
    { name = "big529-congested"; source = Circuit "big529"; tracks = 38; max_moves = 6_000;
      replicas = 1 };
    { name = "gen8k-warm"; source = Generated 8000; tracks = 38; max_moves = 200; replicas = 1 };
    { name = "fleet-k2"; source = Circuit "s1"; tracks = 28; max_moves = 10_000; replicas = 2 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let serial w = w.replicas = 1

(* --- inputs --- *)

type input = {
  nl : Spr_netlist.Netlist.t;
  design_args : string list;  (** how the CLI names the design *)
  blif : string option;
}

type env = {
  spr : string;  (** the [spr] executable *)
  work : string;  (** scratch directory for designs and run outputs *)
}

(* The netlist the CLI will see: generated designs go through a BLIF
   file so net numbering is the CLI's own. The generated design is the
   same for every seed: with one design per seed, gen8k-warm's wall
   clock spread 14% across seeds, which no bound could absorb. *)
let prepare env w =
  match w.source with
  | Circuit name ->
    let nl = Spr_netlist.Circuits.make_by_name name in
    { nl; design_args = [ "--circuit"; name ]; blif = None }
  | Generated cells ->
    let path = Filename.concat env.work (Printf.sprintf "gen%d.blif" cells) in
    let params = Spr_netlist.Generator.default ~n_cells:cells in
    let nl = Spr_netlist.Generator.generate params ~seed:1 in
    Proc.write_file path (Spr_netlist.Blif.to_string nl);
    let nl =
      match Spr_netlist.Blif.parse_file path with Ok nl -> nl | Error e -> failwith e
    in
    { nl; design_args = [ path ]; blif = Some path }

let tool_config ~seed nl =
  Spr_experiments.Profiles.tool_config ~seed Spr_experiments.Profiles.Quick
    ~n:(Spr_netlist.Netlist.n_cells nl)

(* --- one CLI run --- *)

type outcome = { moves : int; g : int; d : int; delay_ns : float }

let outcome_to_string o =
  Printf.sprintf "moves=%d G=%d D=%d delay=%.17g ns" o.moves o.g o.d o.delay_ns

let outcome_of_report (r : Report.t) =
  { moves = r.Report.r_moves; g = r.Report.r_g_unrouted; d = r.Report.r_d_unrouted;
    delay_ns = r.Report.r_critical_delay_ns }

type run = {
  usage : Proc.usage;
  report : Report.t option;  (** [None] when the run failed before writing one *)
  persist_files : int;
  persist_bytes : int;
  audit_s : float;  (** time the layout checks took; 0 when skipped *)
  failures : string list;
}

let moves_in (r : Report.t) =
  (* Every replica's moves; the report's [moves] is the winner's alone. *)
  match r.Report.r_pipeline with Some p -> p.Report.pl_moves | None -> r.Report.r_moves

let command w input ~seed ~max_moves ~dir =
  let f = Filename.concat dir in
  [ "route" ] @ input.design_args
  @ [ "--tracks"; string_of_int w.tracks; "--effort"; "quick"; "--seed"; string_of_int seed;
      "--max-moves"; string_of_int max_moves; "--report"; f "report.json";
      "--checkpoint"; f "layout.ckpt" ]
  @
  if w.replicas > 1 then
    [ "--parallel"; string_of_int w.replicas; "--exchange"; "best:4"; "--run-dir"; f "run" ]
  else []

let last_line text =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' text)) with
  | l :: _ -> l
  | [] -> "(no output)"

let read_report path =
  Result.bind (Spr_util.Persist.read_file path) (fun text ->
      Result.bind (Spr_obs.Json.parse text) Report.of_json)

(* The layout checks: the --checkpoint file reloads, passes every
   audit, and a from-scratch STA reproduces the reported result. *)
let check_layout ~nl ~seed ~path (r : Report.t) =
  match Spr_core.Checkpoint.load nl path with
  | Error e -> [ "checkpoint does not reload: " ^ e ]
  | Ok rs ->
    let config = tool_config ~seed nl in
    let sta = Spr_timing.Sta.create config.Spr_core.Tool.Config.delay_model rs in
    let audit =
      match Spr_check.Audit.run_all ~sta rs with
      | [] -> []
      | findings -> [ "audit findings: " ^ Spr_check.Finding.summarize findings ]
    in
    let g = Spr_route.Route_state.g_count rs and d = Spr_route.Route_state.d_count rs in
    let delay = Spr_timing.Sta.critical_delay sta in
    let want = r.Report.r_critical_delay_ns in
    let reproduce =
      if g <> r.Report.r_g_unrouted || d <> r.Report.r_d_unrouted
         || Float.abs (delay -. want) > 1e-9 *. Float.abs want
      then
        [ Printf.sprintf "reloaded layout gives G=%d D=%d delay=%.17g, report says G=%d D=%d %.17g"
            g d delay r.Report.r_g_unrouted r.Report.r_d_unrouted want ]
      else []
    in
    audit @ reproduce

(* One [spr route] child under [max_moves], outputs checked. The layout
   checks cost up to 2 s on gen8k-warm, so set-up runs skip them with
   [~layout:false]. *)
let run_cli ?(layout = true) env w input ~seed ~max_moves =
  let dir = Filename.concat env.work w.name in
  Proc.remove_tree dir;
  Proc.ensure_dir dir;
  let log = Filename.concat dir "log.txt" in
  let usage = Proc.run ~prog:env.spr ~args:(command w input ~seed ~max_moves ~dir) ~log in
  let persist_files, persist_bytes = Proc.tree_size (Filename.concat dir "run") in
  let report, failures, audit_s =
    if usage.Proc.exit_code <> 0 then
      ( None,
        [ Printf.sprintf "exit code %d (signal %d): %s" usage.Proc.exit_code usage.Proc.signal
            (last_line (Proc.read_file log)) ],
        0.0 )
    else
      match read_report (Filename.concat dir "report.json") with
      | Error e -> (None, [ "report: " ^ e ], 0.0)
      | Ok r ->
        let status =
          if r.Report.r_status <> "interrupted (move budget)" || r.Report.r_moves <> max_moves then
            [ Printf.sprintf "status %S after %d moves, expected the %d-move budget"
                r.Report.r_status r.Report.r_moves max_moves ]
          else []
        in
        let t0 = Proc.now () in
        let layout =
          if layout then check_layout ~nl:input.nl ~seed ~path:(Filename.concat dir "layout.ckpt") r
          else []
        in
        (Some r, status @ layout, Proc.now () -. t0)
  in
  Proc.remove_tree dir;
  { usage; report; persist_files; persist_bytes; audit_s; failures }
