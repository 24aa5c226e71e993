(* The ledger's commands: measure workloads, check every run, print
   every metric as [workload metric value unit], and compare two
   ledgers. *)

module W = Workload
module M = Ledger_metrics
module Json = Spr_obs.Json

(* --- run accounting --- *)

(* Runs attempted and failed for one workload; every failure is printed
   as it happens. *)
type tally = { w : W.t; mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally w = { w; attempted = 0; failed = 0; notes = [] }

let note t failures =
  t.attempted <- t.attempted + 1;
  if failures <> [] then begin
    t.failed <- t.failed + 1;
    List.iter
      (fun f ->
        Printf.printf "FAIL %s: %s\n%!" t.w.W.name f;
        t.notes <- f :: t.notes)
      failures
  end

(* A full run must also land where every other run of its seed did. *)
let check_same t ~reference (r : W.run) =
  let failures =
    match r.W.report with
    | None -> r.W.failures
    | Some rep -> (
      let o = W.outcome_of_report rep in
      match !reference with
      | None ->
        reference := Some o;
        r.W.failures
      | Some o' when o = o' -> r.W.failures
      | Some o' ->
        r.W.failures
        @ [ Printf.sprintf "same seed, different result: %s vs %s" (W.outcome_to_string o)
              (W.outcome_to_string o') ])
  in
  note t failures

(* --- measurement --- *)

type rep = { setup_s : float option; full : W.run }

(* One rep: set-up runs ([--max-moves 1]) until ten attempts or half a
   second of them, whichever comes first, and then the full command,
   whose layout is checked if [audit]. The rep's [setup_s] is the median
   of its set-up runs that passed; [None] if none did. *)
let timed_rep ?(audit = true) env t input ~seed ~reference =
  let rec setups acc attempts spent =
    if attempts >= 10 || spent >= 0.5 then acc
    else begin
      let r = W.run_cli ~layout:false env t.w input ~seed ~max_moves:1 in
      note t r.W.failures;
      let wall = r.W.usage.Proc.wall_s in
      setups (if r.W.failures = [] then wall :: acc else acc) (attempts + 1) (spent +. wall)
    end
  in
  let setup_s = match setups [] 0 0.0 with [] -> None | walls -> Some (Stats.median walls) in
  let full = W.run_cli ~layout:audit env t.w input ~seed ~max_moves:t.w.W.max_moves in
  check_same t ~reference full;
  { setup_s; full }

(* The traced run of a serial workload must reproduce [cli]'s result. *)
let traced_run t input ~seed (cli : W.run) =
  if not (W.serial t.w) then None
  else
    (* Collect the garbage of earlier checks first, so the traced layers
       are not charged for it. *)
    let () = Gc.full_major () in
    match Traced.run t.w input ~seed with
    | exception e ->
      note t [ "traced run raised " ^ Printexc.to_string e ];
      None
    | tr ->
      let failures =
        match cli.W.report with
        | Some rep when W.outcome_of_report rep <> tr.Traced.outcome ->
          [ Printf.sprintf "traced run ends at %s, the CLI at %s"
              (W.outcome_to_string tr.Traced.outcome)
              (W.outcome_to_string (W.outcome_of_report rep)) ]
        | _ -> []
      in
      note t failures;
      Some tr

let summaries t reps =
  let runs = List.filter_map (fun r -> M.run_values r.full) reps in
  List.map
    (fun (m : M.metric) ->
      let values =
        match m.M.name with
        | "setup_s" -> List.filter_map (fun r -> r.setup_s) reps
        | "fail_rate" -> [ M.ratio t.failed t.attempted ]
        | name -> List.map (List.assoc name) runs
      in
      (m, M.summarize values))
    M.end_to_end

(* --- output --- *)

let unit_of name =
  match List.find_opt (fun (m : M.metric) -> m.M.name = name) M.end_to_end with
  | Some m -> m.M.unit
  | None ->
    let _, unit, _ = List.find (fun (n, _, _) -> n = name) M.per_layer in
    unit

let print_line w name v =
  Printf.printf "%s %s %s %s\n%!" w.W.name name (Json.float_repr v) (unit_of name)

let workload_json t ~command ~e2e ~layers =
  ( t.w.W.name,
    Json.Obj
      [
        ("command", Json.String command);
        ("attempted", Json.Int t.attempted);
        ("failed", Json.Int t.failed);
        ("failures", Json.List (List.rev_map (fun s -> Json.String s) t.notes));
        ("end_to_end", Json.Obj (List.map (fun (m, s) -> (m.M.name, M.summary_to_json m s)) e2e));
        ( "per_layer",
          Json.Obj
            (List.map
               (fun (name, v) ->
                 (name, Json.Obj [ ("unit", Json.String (unit_of name)); ("value", Json.Float v) ]))
               layers) );
      ] )

(* --- commands --- *)

(* One ledger from the reps of one set, with a traced run per workload:
   the spr-bench-1 envelope and the number of failed runs. *)
let ledger_of_set ~seed ~reps set =
  let results =
    List.map
      (fun (t, input, acc) ->
        let reps = List.rev !acc in
        let cli = (List.hd !acc).full in
        let layers =
          match cli.W.report with
          | None -> []
          | Some rep ->
            let cli_wall = Stats.median (List.map (fun r -> r.full.W.usage.Proc.wall_s) reps) in
            M.layers t.w cli rep (traced_run t input ~seed cli) ~cli_wall
        in
        let e2e = summaries t reps in
        List.iter (fun ((m : M.metric), s) -> print_line t.w m.M.name s.M.median) e2e;
        List.iter (fun (name, v) -> print_line t.w name v) layers;
        let args = W.command t.w input ~seed ~max_moves:t.w.W.max_moves ~dir:"OUT" in
        let command = String.concat " " ("spr" :: args) in
        workload_json t ~command ~e2e ~layers)
      set
  in
  let attempted = List.fold_left (fun n (t, _, _) -> n + t.attempted) 0 set in
  let failed = List.fold_left (fun n (t, _, _) -> n + t.failed) 0 set in
  Printf.printf "%d runs, %d failed\n%!" attempted failed;
  ( Spr_obs.Bench.payload ~bench:"ledger" ~effort:"quick"
      [
        ("seed", Json.Int seed);
        ("reps", Json.Int reps);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("workloads", Json.Obj results);
      ],
    failed )

(* [sets] ledgers of every workload, [reps] reps each. The reps run in
   rep-major order, set after set within a rep, so drift hits every
   workload and every set alike. Every rep of every set must reach the
   same result. *)
let run_all env workloads ~seed ~reps ~sets =
  let inputs = List.map (fun w -> (w, W.prepare env w, ref None)) workloads in
  let sets =
    List.init sets (fun _ ->
        List.map (fun (w, input, reference) -> (tally w, input, reference, ref [])) inputs)
  in
  for _ = 1 to reps do
    List.iter
      (List.iter (fun (t, input, reference, acc) ->
           acc := timed_rep env t input ~seed ~reference :: !acc))
      sets
  done;
  List.map
    (fun set -> ledger_of_set ~seed ~reps (List.map (fun (t, input, _, acc) -> (t, input, acc)) set))
    sets

(* [f k] for k = 0, 1, ...: once, then while one more call, at the mean
   cost of the calls so far, still ends within [seconds] of [start]. *)
let repeat ~start ~seconds f =
  let t0 = Proc.now () in
  let rec go k acc =
    let now = Proc.now () in
    if k >= 64 || (k >= 1 && now -. start +. ((now -. t0) /. float_of_int k) > seconds) then
      List.rev acc
    else go (k + 1) (f k :: acc)
  in
  go 0 []

(* A CLI run and its traced twin; the per-layer values of the pair. *)
let traced_iteration env t input ~seed =
  let cli = W.run_cli env t.w input ~seed ~max_moves:t.w.W.max_moves in
  note t cli.W.failures;
  Option.map
    (fun rep ->
      M.layers t.w cli rep (traced_run t input ~seed cli) ~cli_wall:cli.W.usage.Proc.wall_s)
    cli.W.report

(* One workload for about [seconds], preparing its input included: reps
   (or traced iterations) while the next one fits, and at least one.
   Iteration k anneals with seed 64 * seed + k, so the medians average
   over several trajectories. The layout checks of a timed run cost
   nearly 2 s on gen8k-warm, so only the first rep's layout is checked;
   later reps are held to the exit, status and move-budget checks. With
   [trace] the result carries the per-layer metrics, otherwise the
   end-to-end metrics BENCHMARK.json lists. *)
let one_workload env w ~seed ~seconds ~trace =
  let start = Proc.now () in
  let t = tally w in
  let input = W.prepare env w in
  let seed_of k = (64 * seed) + k in
  let metrics =
    if trace then begin
      let layers =
        List.filter_map Fun.id
          (repeat ~start ~seconds (fun k -> traced_iteration env t input ~seed:(seed_of k)))
      in
      let metrics =
        List.map
          (fun (name, _, _) -> (name, Stats.median (List.map (List.assoc name) layers)))
          M.per_layer
      in
      List.iter (fun (name, v) -> print_line w name v) metrics;
      metrics
    end
    else
      let reps =
        repeat ~start ~seconds (fun k ->
            timed_rep ~audit:(k = 0) env t input ~seed:(seed_of k) ~reference:(ref None))
      in
      List.filter_map
        (fun ((m : M.metric), (s : M.summary)) ->
          print_line w m.M.name s.M.median;
          if m.M.listed then Some (m.M.name, s.M.median) else None)
        (summaries t reps)
  in
  Json.Obj
    [
      ("correct", Json.Bool (t.failed = 0));
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v) ->
               (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String (unit_of name)) ]))
             metrics) );
    ]

(* One row per workload x end-to-end metric of [parent]; returns whether
   any row regressed. *)
let compare ~parent ~change =
  let workloads (j : Json.t) =
    match Json.member "workloads" j with Some (Json.Obj ws) -> Ok ws | _ -> Error "no workloads"
  in
  match (workloads parent, workloads change) with
  | Error e, _ | _, Error e -> Error e
  | Ok pw, Ok cw ->
    let side s =
      Printf.sprintf "%s [%s, %s] n=%d" (Json.float_repr s.M.median) (Json.float_repr s.M.q1)
        (Json.float_repr s.M.q3) s.M.n
    in
    let regressed = ref false in
    List.iter
      (fun (name, p) ->
        List.iter
          (fun (m : M.metric) ->
            let get j =
              Option.bind
                (Option.bind (Json.member "end_to_end" j) (Json.member m.M.name))
                M.summary_of_json
            in
            match (get p, Option.bind (List.assoc_opt name cw) get) with
            | Some ps, Some cs ->
              let v = M.verdict m ~parent:ps ~change:cs in
              if v = M.Regressed then regressed := true;
              Printf.printf "%-17s %-17s %-9s parent %s  change %s  %s\n" name m.M.name m.M.unit
                (side ps) (side cs) (M.verdict_to_string v)
            | _ -> Printf.printf "%-17s %-17s missing on one side\n" name m.M.name)
          M.end_to_end)
      pw;
    Ok !regressed
