(* What the ledger reports: the end-to-end metrics with their bounds,
   the per-layer metrics, and the verdict rule [compare] applies. *)

module Report = Spr_obs.Report
module Json = Spr_obs.Json

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** share of the parent's median it may worsen by *)
  floor : float;  (** ... but never less than this, in [unit] *)
  listed : bool;  (** in BENCHMARK.json, whose metrics must never read 0 *)
}

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let end_to_end =
  let m ?(listed = true) ?(floor = 0.0) name unit better bound =
    { name; unit; better; bound; floor; listed }
  in
  [
    m "wall_s" "s" Lower 0.25;
    m "moves_per_s" "moves/s" Higher 0.25;
    (* s1 sets up in ~10 ms, where a quarter is within process-start
       jitter. *)
    m ~floor:0.005 "setup_s" "s" Lower 0.25;
    m "cpu_s" "s" Lower 0.25;
    m "peak_rss_mb" "MB" Lower 0.15;
    m "critical_delay_ns" "ns" Lower 0.2;
    (* Exact counts: 0 on a clean or fully routed run, so BENCHMARK.json
       carries them as the result's [failed] field and not as metrics. *)
    m ~listed:false "unrouted_nets" "nets" Lower 0.0;
    m ~listed:false "fail_rate" "runs/runs" Lower 0.0;
  ]

let per_layer =
  [
    ("netlist.load_s", "s", Lower);
    ("layout.create_s", "s", Lower);
    ("route.initial_s", "s", Lower);
    ("route.final_s", "s", Lower);
    ("route.rip_up_s", "s", Lower);
    ("route.global_s", "s", Lower);
    ("route.detail_s", "s", Lower);
    ("route.global_attempts", "count", Lower);
    ("route.global_success_ratio", "ratio", Higher);
    ("route.detail_attempts", "count", Lower);
    ("route.detail_success_ratio", "ratio", Higher);
    ("route.ripped_nets_per_move", "nets/move", Lower);
    ("timing.create_s", "s", Lower);
    ("timing.full_update_s", "s", Lower);
    ("timing.retime_s", "s", Lower);
    ("timing.retimed_nets_per_move", "nets/move", Lower);
    ("pipeline.propose_s", "s", Lower);
    ("pipeline.propose_p50_us", "us", Lower);
    ("pipeline.propose_p99_us", "us", Lower);
    ("pipeline.accept_s", "s", Lower);
    ("pipeline.reject_s", "s", Lower);
    ("pipeline.reject_p99_us", "us", Lower);
    ("pipeline.accept_ratio", "ratio", Higher);
    ("pipeline.null_ratio", "ratio", Lower);
    ("pipeline.decide_s", "s", Lower);
    ("pipeline.phase_coverage", "ratio", Higher);
    ("anneal.self_s", "s", Lower);
    ("anneal.cost_s", "s", Lower);
    ("anneal.temperature_s", "s", Lower);
    ("anneal.boundary_s", "s", Lower);
    ("anneal.moves", "count", Higher);
    ("anneal.temperatures", "count", Higher);
    ("fleet.parallel_eff", "ratio", Higher);
    ("fleet.exchange_rounds", "count", Lower);
    ("fleet.move_ns", "ns", Lower);
    ("persist.files", "count", Lower);
    ("persist.bytes", "bytes", Lower);
    ("trace.unaccounted_share", "ratio", Lower);
    ("trace.overhead", "ratio", Lower);
    ("check.audit_s", "s", Lower);
  ]

(* --- end-to-end values of one timed run --- *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* [(metric, value)] for one checked full run; [None] if it failed
   before reporting. [setup_s] and [fail_rate] are not per-run. *)
let run_values (r : Workload.run) =
  match r.Workload.report with
  | None -> None
  | Some rep ->
    let u = r.Workload.usage in
    Some
      [
        ("wall_s", u.Proc.wall_s);
        ("moves_per_s", float_of_int (Workload.moves_in rep) /. u.Proc.wall_s);
        ("cpu_s", u.Proc.cpu_s);
        ("peak_rss_mb", float_of_int u.Proc.maxrss_kb /. 1024.0);
        ("critical_delay_ns", rep.Report.r_critical_delay_ns);
        ("unrouted_nets", float_of_int (rep.Report.r_g_unrouted + rep.Report.r_d_unrouted));
      ]

type summary = { median : float; q1 : float; q3 : float; n : int; values : float list }

let summarize values =
  let q1, q3 = Stats.quartiles values in
  { median = Stats.median values; q1; q3; n = List.length values; values }

(* --- per-layer values --- *)

let phase_seconds (p : Report.pipeline) ph =
  let name = Spr_core.Profile.phase_name ph in
  List.fold_left
    (fun acc (r : Report.phase_row) ->
      if r.Report.ph_name = name then acc +. r.Report.ph_seconds else acc)
    0.0 p.Report.pl_phases

(* The layers a run's own [Profile] measures, whichever process ran it. *)
let pipeline_layers (p : Report.pipeline) =
  let module Pr = Spr_core.Profile in
  let moves = p.Report.pl_moves in
  let phase_sum =
    List.fold_left
      (fun acc (r : Report.phase_row) -> acc +. r.Report.ph_seconds)
      0.0 p.Report.pl_phases
  in
  [
    ("route.rip_up_s", phase_seconds p Pr.Rip_up);
    ("route.global_s", phase_seconds p Pr.Global);
    ("route.detail_s", phase_seconds p Pr.Detail);
    ("route.global_attempts", float_of_int p.Report.pl_global_attempts);
    ("route.global_success_ratio", ratio p.Report.pl_global_routed p.Report.pl_global_attempts);
    ("route.detail_attempts", float_of_int p.Report.pl_detail_attempts);
    ("route.detail_success_ratio", ratio p.Report.pl_detail_routed p.Report.pl_detail_attempts);
    ("route.ripped_nets_per_move", ratio p.Report.pl_ripped_nets moves);
    ("timing.retime_s", phase_seconds p Pr.Retime);
    ("timing.retimed_nets_per_move", ratio p.Report.pl_retimed_nets moves);
    ("pipeline.accept_ratio", ratio p.Report.pl_accepts moves);
    ("pipeline.null_ratio", ratio p.Report.pl_null_moves (moves + p.Report.pl_null_moves));
    ("pipeline.decide_s", phase_seconds p Pr.Decide);
    ( "pipeline.phase_coverage",
      if p.Report.pl_total_seconds <= 0.0 then 1.0 else phase_sum /. p.Report.pl_total_seconds );
  ]

(* Layers seen from outside a CLI run: its report, its run directory and
   the cost of checking it. *)
let cli_layers (w : Workload.t) (r : Workload.run) (rep : Report.t) =
  let u = r.Workload.usage in
  let pipeline_total, moves =
    match rep.Report.r_pipeline with
    | Some p -> (p.Report.pl_total_seconds, p.Report.pl_moves)
    | None -> (0.0, 0)
  in
  [
    ("anneal.moves", float_of_int (Workload.moves_in rep));
    ("anneal.temperatures", float_of_int rep.Report.r_temperatures);
    ("fleet.parallel_eff", u.Proc.cpu_s /. (float_of_int w.Workload.replicas *. u.Proc.wall_s));
    ("fleet.exchange_rounds", float_of_int rep.Report.r_exchange_rounds);
    ("fleet.move_ns", if moves = 0 then 0.0 else pipeline_total /. float_of_int moves *. 1e9);
    ("persist.files", float_of_int r.Workload.persist_files);
    ("persist.bytes", float_of_int r.Workload.persist_bytes);
    ("check.audit_s", r.Workload.audit_s);
  ]

(* Latencies of a call that never ran (rejects in a warmup-only run)
   read 0. *)
let p50 = function [] -> 0.0 | xs -> Stats.median xs

let p99 = function
  | [] -> 0.0
  | xs -> ( match Stats.tail xs with Some (_, v) -> v | None -> Stats.median xs)

(* Spans of the traced run, with its wall clock against the CLI run's. *)
let traced_layers (t : Traced.result) ~cli_wall =
  let s = t.Traced.spans in
  let total = Span.total_named s in
  let root = (Span.root s).Span.total in
  [
    ("netlist.load_s", total "netlist.load");
    ("layout.create_s", total "layout.create");
    ("route.initial_s", total "route.initial");
    ("route.final_s", total "route.final");
    ("timing.create_s", total "timing.create");
    ("timing.full_update_s", total "timing.full_update");
    ("pipeline.propose_s", total "pipeline.propose");
    ("pipeline.propose_p50_us", p50 t.Traced.propose_us);
    ("pipeline.propose_p99_us", p99 t.Traced.propose_us);
    ("pipeline.accept_s", total "pipeline.accept");
    ("pipeline.reject_s", total "pipeline.reject");
    ("pipeline.reject_p99_us", p99 t.Traced.reject_us);
    ("anneal.self_s", Span.self_named s "anneal");
    ("anneal.cost_s", total "anneal.cost");
    ("anneal.temperature_s", total "anneal.temperature");
    ("anneal.boundary_s", total "anneal.boundary");
    ("trace.unaccounted_share", Span.unaccounted_share s);
    ("trace.overhead", (root /. cli_wall) -. 1.0);
  ]

(* Every per-layer metric for one traced iteration, in [per_layer]
   order. A layer the workload's traced run cannot see reads 0: spans
   on the fleet (its replicas run inside the child), and the rejects of
   a warmup-only run. *)
let layers w (cli : Workload.run) (rep : Report.t) (traced : Traced.result option) ~cli_wall =
  let from_run =
    match traced with
    | Some t -> pipeline_layers t.Traced.pipeline @ traced_layers t ~cli_wall
    | None -> ( match rep.Report.r_pipeline with Some p -> pipeline_layers p | None -> [])
  in
  let from_cli = cli_layers w cli rep in
  List.map
    (fun (name, _, _) ->
      let v =
        match List.assoc_opt name from_run with
        | Some v -> v
        | None -> Option.value (List.assoc_opt name from_cli) ~default:0.0
      in
      (name, v))
    per_layer

(* --- verdicts --- *)

type verdict = Improved | Within | Regressed | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Within -> "within bound"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* How far [s]'s median may move: the bound's share of it, at least the
   floor. *)
let limit m s = Float.max m.floor (m.bound *. Float.abs s.median)

(* A side whose own interquartile range exceeds its limit cannot resolve
   a change of that size; otherwise the medians decide. *)
let verdict m ~parent ~change =
  let unresolved s = s.q3 -. s.q1 > limit m s in
  if unresolved parent || unresolved change then Unresolved
  else begin
    let worse =
      match m.better with
      | Lower -> change.median -. parent.median
      | Higher -> parent.median -. change.median
    in
    let limit = limit m parent in
    if worse > limit then Regressed else if -.worse > limit then Improved else Within
  end

(* --- JSON --- *)

let summary_to_json m s =
  Json.Obj
    [
      ("unit", Json.String m.unit);
      ("better", Json.String (better_to_string m.better));
      ("bound", Json.Float m.bound);
      ("median", Json.Float s.median);
      ("q1", Json.Float s.q1);
      ("q3", Json.Float s.q3);
      ("n", Json.Int s.n);
      ( "tail",
        match Stats.tail s.values with
        | Some (label, v) -> Json.Obj [ ("percentile", Json.String label); ("value", Json.Float v) ]
        | None -> Json.Null );
      ("values", Json.List (List.map (fun v -> Json.Float v) s.values));
    ]

let summary_of_json j =
  let num k = Option.bind (Json.member k j) Json.to_float in
  match (num "median", num "q1", num "q3", Option.bind (Json.member "n" j) Json.to_int) with
  | Some median, Some q1, Some q3, Some n -> Some { median; q1; q3; n; values = [] }
  | _ -> None
