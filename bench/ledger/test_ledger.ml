open Spr_ledger
module M = Ledger_metrics
module Json = Spr_obs.Json

let close = Alcotest.float 1e-12

(* --- order statistics --- *)

let test_median () =
  Alcotest.check close "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "single" 7.0 (Stats.median [ 7.0 ])

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Stats.quartiles (List.map float_of_int xs) in
  let pair = Alcotest.(pair close close) in
  Alcotest.check pair "1..10" (2.75, 8.25) (q [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]);
  Alcotest.check pair "1..5" (1.5, 4.5) (q [ 5; 4; 3; 2; 1 ]);
  Alcotest.check pair "two values" (0.75, 2.25) (q [ 1; 2 ]);
  Alcotest.check pair "one value" (3.0, 3.0) (q [ 3 ])

let test_tail () =
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  let tail n = Stats.tail (upto n) in
  let opt = Alcotest.(option (pair string close)) in
  Alcotest.check opt "99 samples: no percentile has 10 beyond it" None (tail 99);
  Alcotest.check opt "100 samples: p90" (Some ("p90", 90.0)) (tail 100);
  Alcotest.check opt "999 samples: p99 has only 9 beyond" (Some ("p90", 900.0)) (tail 999);
  Alcotest.check opt "1000 samples: p99" (Some ("p99", 990.0)) (tail 1000);
  Alcotest.check opt "10000 samples: still p99" (Some ("p99", 9900.0)) (tail 10000)

(* --- spans --- *)

let test_span_self_time () =
  let now = ref 0.0 in
  let tick dt () = now := !now +. dt in
  let tree = Span.create ~clock:(fun () -> !now) "run" in
  let root = Span.root tree in
  let outer = Span.child root "outer" and other = Span.child root "other" in
  let inner = Span.child outer "inner" in
  Span.time tree root (fun () ->
      tick 1.0 ();
      Span.time tree outer (fun () ->
          tick 2.0 ();
          Span.time tree inner (tick 3.0);
          Span.time tree inner (tick 1.0));
      Span.time tree other (tick 2.0);
      tick 1.0 ());
  Span.add (Span.child other "virtual") ~seconds:0.5 ~calls:1;
  Alcotest.check close "root total" 10.0 root.Span.total;
  Alcotest.check close "outer total" 6.0 outer.Span.total;
  Alcotest.check close "outer self" 2.0 (Span.self outer);
  Alcotest.(check int) "inner calls" 2 inner.Span.calls;
  Alcotest.check close "added child counts as covered" 1.5 (Span.self other);
  Alcotest.check close "root self" 2.0 (Span.self root);
  Alcotest.check close "unaccounted share" 0.2 (Span.unaccounted_share tree);
  Alcotest.check close "self by name" 4.0 (Span.self_named tree "inner")

(* --- scratch space --- *)

let test_scratch () =
  let root = "scratch-root" in
  Proc.ensure_dir root;
  let keep = Filename.concat root "keep.txt" in
  Proc.write_file keep "x";
  let used = Proc.with_scratch root (fun dir -> Proc.write_file (Filename.concat dir "f") "y"; dir) in
  Alcotest.(check bool) "own directory removed" false (Sys.file_exists used);
  Alcotest.(check bool) "other files kept" true (Sys.file_exists keep);
  Proc.remove_tree root;
  ignore (Proc.with_scratch root Fun.id);
  Alcotest.(check bool) "a root it created is removed" false (Sys.file_exists root)

(* --- verdicts --- *)

let test_verdicts () =
  let s ?(q = 0.1) median = { M.median; q1 = median -. q; q3 = median +. q; n = 10; values = [] } in
  let lower =
    { M.name = "wall_s"; unit = "s"; better = M.Lower; bound = 0.1; floor = 0.0; listed = true }
  in
  let higher = { lower with M.name = "moves_per_s"; better = M.Higher } in
  let exact = { lower with M.name = "unrouted_nets"; bound = 0.0 } in
  let floored = { lower with M.name = "setup_s"; floor = 2.0 } in
  let v m p c = M.verdict_to_string (M.verdict m ~parent:p ~change:c) in
  let check msg want got = Alcotest.(check string) msg want got in
  check "small change" "within bound" (v lower (s 10.0) (s 10.5));
  check "slower" "regressed" (v lower (s 10.0) (s 11.5));
  check "faster" "improved" (v lower (s 10.0) (s 8.5));
  check "higher is better" "regressed" (v higher (s 10.0) (s 8.5));
  check "wide parent" "unresolved" (v lower (s ~q:1.0 10.0) (s 15.0));
  check "wide change" "unresolved" (v lower (s 10.0) (s ~q:1.0 10.0));
  check "exact equal" "within bound" (v exact (s ~q:0.0 3.0) (s ~q:0.0 3.0));
  check "exact worse" "regressed" (v exact (s ~q:0.0 3.0) (s ~q:0.0 4.0));
  check "exact better" "improved" (v exact (s ~q:0.0 3.0) (s ~q:0.0 2.0));
  check "within the floor" "within bound" (v floored (s 10.0) (s 11.5));
  check "past the floor" "regressed" (v floored (s 10.0) (s 12.5));
  check "spread within the floor" "within bound" (v floored (s ~q:0.9 10.0) (s 10.0))

(* --- BENCHMARK.json describes this ledger --- *)

let test_benchmark_json () =
  let j =
    match Spr_util.Persist.read_file "../../BENCHMARK.json" with
    | Ok text -> Result.get_ok (Json.parse text)
    | Error e -> Alcotest.fail e
  in
  let list k = Option.get (Option.bind (Json.member k j) Json.to_list) in
  let str k o = Option.get (Option.bind (Json.member k o) Json.to_str) in
  Alcotest.(check (list string)) "workloads"
    (List.map (fun w -> w.Workload.name) Workload.all)
    (List.map (str "name") (list "workloads"));
  Alcotest.(check (list (triple string string string))) "end-to-end metrics"
    (List.filter_map
       (fun m ->
         if m.M.listed then Some (m.M.name, m.M.unit, M.better_to_string m.M.better) else None)
       M.end_to_end)
    (List.map (fun o -> (str "name" o, str "unit" o, str "better" o)) (list "end_to_end"));
  List.iter
    (fun o ->
      let m = List.find (fun m -> m.M.name = str "name" o) M.end_to_end in
      Alcotest.check close (m.M.name ^ " bound") m.M.bound
        (Option.get (Option.bind (Json.member "bound" o) Json.to_float)))
    (list "end_to_end");
  Alcotest.(check (list (triple string string string))) "per-layer metrics"
    (List.map (fun (name, unit, better) -> (name, unit, M.better_to_string better)) M.per_layer)
    (List.map (fun o -> (str "name" o, str "unit" o, str "better" o)) (list "per_layer"))

(* --- smoke: short runs through the real CLI --- *)

let short name = { (Option.get (Workload.find name)) with Workload.max_moves = 300 }

let with_env ?(spr = "../../bin/spr_cli.exe") f =
  Proc.with_scratch "ledger-smoke" (fun work -> f { Workload.spr; work })

let test_traced_matches_cli () =
  with_env @@ fun env ->
  let w = short "s1-serial" in
  let input = Workload.prepare env w in
  let cli = Workload.run_cli env w input ~seed:3 ~max_moves:300 in
  Alcotest.(check (list string)) "CLI run passes its checks" [] cli.Workload.failures;
  let traced = Traced.run w input ~seed:3 in
  Alcotest.(check string) "traced run reproduces the CLI"
    (Workload.outcome_to_string (Workload.outcome_of_report (Option.get cli.Workload.report)))
    (Workload.outcome_to_string traced.Traced.outcome);
  Alcotest.(check bool) "spans cover the traced run" true
    (Span.unaccounted_share traced.Traced.spans < 0.03)

let keys j = match j with Some (Json.Obj l) -> List.map fst l | _ -> []

let layer_names = List.map (fun (name, _, _) -> name) M.per_layer

let test_result_names () =
  with_env @@ fun env ->
  let w = short "s1-serial" in
  let timed = Measure.one_workload env w ~seed:1 ~seconds:0.0 ~trace:false in
  Alcotest.(check bool) "correct" true (Json.member "correct" timed = Some (Json.Bool true));
  Alcotest.(check (list string)) "end-to-end names"
    (List.filter_map (fun m -> if m.M.listed then Some m.M.name else None) M.end_to_end)
    (keys (Json.member "metrics" timed));
  let traced = Measure.one_workload env w ~seed:1 ~seconds:0.0 ~trace:true in
  Alcotest.(check bool) "traced correct" true
    (Json.member "correct" traced = Some (Json.Bool true));
  Alcotest.(check (list string)) "per-layer names" layer_names
    (keys (Json.member "metrics" traced))

(* A CLI that fails at start-up: every run counts as failed, and the
   workload still returns, after ten set-up attempts and the full run. *)
let test_failing_cli () =
  with_env ~spr:"/bin/false" @@ fun env ->
  let result = Measure.one_workload env (short "s1-serial") ~seed:1 ~seconds:0.0 ~trace:false in
  Alcotest.(check bool) "not correct" true (Json.member "correct" result = Some (Json.Bool false));
  let int k = Option.bind (Json.member k result) Json.to_int in
  Alcotest.(check (option int)) "attempted" (Some 11) (int "attempted");
  Alcotest.(check (option int)) "failed" (Some 11) (int "failed")

let test_ledger_json () =
  with_env @@ fun env ->
  let sets = Measure.run_all env [ short "s1-serial"; short "fleet-k2" ] ~seed:2 ~reps:1 ~sets:2 in
  Alcotest.(check int) "two interleaved sets" 2 (List.length sets);
  let ledger, _ = List.hd sets in
  Alcotest.(check (list int)) "no failed runs" [ 0; 0 ] (List.map snd sets);
  Alcotest.(check (option string)) "envelope" (Some "spr-bench-1")
    (Option.bind (Json.member "schema" ledger) Json.to_str);
  let workloads = Json.member "workloads" ledger in
  Alcotest.(check (list string)) "workloads" [ "s1-serial"; "fleet-k2" ] (keys workloads);
  List.iter
    (fun name ->
      let w = Option.bind workloads (Json.member name) in
      Alcotest.(check (list string)) (name ^ " end-to-end")
        (List.map (fun m -> m.M.name) M.end_to_end)
        (keys (Option.bind w (Json.member "end_to_end")));
      Alcotest.(check (list string)) (name ^ " per-layer") layer_names
        (keys (Option.bind w (Json.member "per_layer"))))
    [ "s1-serial"; "fleet-k2" ];
  Alcotest.(check (result bool string)) "a ledger does not regress against itself" (Ok false)
    (Measure.compare ~parent:ledger ~change:ledger)

let () =
  Alcotest.run "ledger"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail percentile" `Quick test_tail;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_span_self_time ]);
      ("scratch", [ Alcotest.test_case "removes only its own" `Quick test_scratch ]);
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdicts ]);
      ("benchmark", [ Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ]);
      ( "smoke",
        [
          Alcotest.test_case "traced run matches the CLI" `Quick test_traced_matches_cli;
          Alcotest.test_case "result names" `Quick test_result_names;
          Alcotest.test_case "failing CLI" `Quick test_failing_cli;
          Alcotest.test_case "ledger json" `Quick test_ledger_json;
        ] );
    ]
