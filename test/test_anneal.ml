module Engine = Spr_anneal.Engine
module Weights = Spr_anneal.Weights
module Rng = Spr_util.Rng

let qtest = QCheck_alcotest.to_alcotest

(* Toy problem: order an array by random adjacent swaps; cost = number of
   inversions. Annealing should sort it (or nearly). *)
let toy_problem seed n =
  let rng_init = Rng.create seed in
  let arr = Array.init n Fun.id in
  Rng.shuffle_in_place rng_init arr;
  let inversions () =
    let c = ref 0 in
    for i = 0 to n - 1 do
      for k = i + 1 to n - 1 do
        if arr.(i) > arr.(k) then incr c
      done
    done;
    float_of_int !c
  in
  let pending = ref None in
  let propose rng =
    let i = Rng.int rng (n - 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(i + 1);
    arr.(i + 1) <- tmp;
    pending := Some i;
    true
  in
  let undo () =
    match !pending with
    | None -> ()
    | Some i ->
      let tmp = arr.(i) in
      arr.(i) <- arr.(i + 1);
      arr.(i + 1) <- tmp;
      pending := None
  in
  (arr, inversions, propose, undo, pending)

let test_engine_optimizes () =
  let arr, cost, propose, undo, pending = toy_problem 3 24 in
  let report =
    Engine.run ~rng:(Rng.create 42) ~cost
      ~propose
      ~accept:(fun () -> pending := None)
      ~reject:undo ~n:24 ()
  in
  Alcotest.(check bool) "cost improved" true (report.Engine.final_cost < report.Engine.initial_cost);
  Alcotest.(check bool) "nearly sorted" true (report.Engine.final_cost < 8.0);
  Alcotest.(check bool) "moves counted" true (report.Engine.n_moves > 0);
  Alcotest.(check bool) "acceptances bounded" true
    (report.Engine.n_accepted <= report.Engine.n_moves);
  ignore arr

let test_engine_deterministic () =
  let run seed =
    let _, cost, propose, undo, pending = toy_problem 7 20 in
    Engine.run ~rng:(Rng.create seed) ~cost ~propose
      ~accept:(fun () -> pending := None)
      ~reject:undo ~n:20 ()
  in
  let a = run 5 and b = run 5 in
  Alcotest.(check (float 1e-9)) "same final cost" a.Engine.final_cost b.Engine.final_cost;
  Alcotest.(check int) "same move count" a.Engine.n_moves b.Engine.n_moves

let test_engine_temperature_callbacks () =
  let temps = ref [] in
  let _, cost, propose, undo, pending = toy_problem 11 16 in
  let report =
    Engine.run
      ~on_temperature:(fun ts -> temps := ts :: !temps)
      ~rng:(Rng.create 1) ~cost ~propose
      ~accept:(fun () -> pending := None)
      ~reject:undo ~n:16 ()
  in
  let temps = List.rev !temps in
  Alcotest.(check bool) "got callbacks" true (List.length temps >= 3);
  (match temps with
  | warmup :: rest ->
    Alcotest.(check int) "warmup is index 0" 0 warmup.Engine.temp_index;
    Alcotest.(check bool) "warmup at infinity" true (warmup.Engine.temperature = infinity);
    (* temperatures decrease monotonically over the cooling phase *)
    let cooling = List.filter (fun ts -> ts.Engine.temperature > 0.0 && ts.Engine.temperature < infinity) rest in
    let rec decreasing = function
      | a :: (b :: _ as rest) -> a.Engine.temperature >= b.Engine.temperature && decreasing rest
      | [ _ ] | [] -> true
    in
    Alcotest.(check bool) "monotone cooling" true (decreasing cooling)
  | [] -> Alcotest.fail "no warmup");
  Alcotest.(check int) "report temperature count consistent" report.Engine.n_temperatures
    (List.length temps - 1)

let test_engine_quench_only_improves () =
  (* With max_temperatures = 0 the engine goes straight from warmup to the
     quench; quench must never accept an uphill move, so the cost at the
     end cannot exceed the cost right after warmup. Run it twice to check
     determinism of the path too. *)
  let _, cost, propose, undo, pending = toy_problem 13 18 in
  let cfg =
    { (Engine.default_config ~n:18) with Engine.max_temperatures = 0; quench_temperatures = 3 }
  in
  let after_warmup = ref nan in
  let seen_warmup = ref false in
  let _report =
    Engine.run ~config:cfg
      ~on_temperature:(fun ts ->
        if not !seen_warmup then begin
          seen_warmup := true;
          after_warmup := ts.Engine.mean_cost
        end)
      ~rng:(Rng.create 2) ~cost ~propose
      ~accept:(fun () -> pending := None)
      ~reject:undo ~n:18 ()
  in
  Alcotest.(check bool) "cost after quench <= typical warmup cost" true
    (cost () <= !after_warmup +. 1e-9)

let test_engine_no_moves () =
  (* propose always fails: engine terminates with zero moves *)
  let report =
    Engine.run
      ~rng:(Rng.create 1)
      ~cost:(fun () -> 1.0)
      ~propose:(fun _ -> false)
      ~accept:(fun () -> Alcotest.fail "no move to accept")
      ~reject:(fun () -> Alcotest.fail "no move to reject")
      ~n:4 ()
  in
  Alcotest.(check int) "zero moves" 0 report.Engine.n_moves

(* --- Weights --- *)

let test_weights_cost () =
  let w = Weights.create ~g_per_net:0.5 ~d_per_net:0.25 ~t_emphasis:2.0 ~initial_delay:10.0 () in
  Alcotest.(check (float 1e-9)) "wg" 0.5 (Weights.wg w);
  Alcotest.(check (float 1e-9)) "wd" 0.25 (Weights.wd w);
  Alcotest.(check (float 1e-9)) "wt = emphasis / base" 0.2 (Weights.wt w);
  Alcotest.(check (float 1e-9)) "combined" ((0.5 *. 3.0) +. (0.25 *. 2.0) +. (0.2 *. 15.0))
    (Weights.cost w ~g:3 ~d:2 ~delay:15.0)

let test_weights_adapt () =
  let w = Weights.create ~initial_delay:10.0 () in
  let wt0 = Weights.wt w in
  Weights.observe w ~delay:20.0;
  Weights.observe w ~delay:20.0;
  Alcotest.(check (float 1e-12)) "no change before adapt" wt0 (Weights.wt w);
  Weights.adapt w;
  Alcotest.(check (float 1e-9)) "baseline moved to 20" (wt0 /. 2.0) (Weights.wt w);
  (* adapt with no samples is a no-op *)
  let wt1 = Weights.wt w in
  Weights.adapt w;
  Alcotest.(check (float 1e-12)) "no-op adapt" wt1 (Weights.wt w)

let test_weights_validation () =
  Alcotest.check_raises "non-positive delay"
    (Invalid_argument "Weights.create: initial_delay must be positive") (fun () ->
      ignore (Weights.create ~initial_delay:0.0 ()))

let test_weights_normalized_invariant =
  QCheck.Test.make ~name:"wt * baseline = emphasis after adapt" ~count:100
    QCheck.(pair (float_range 0.5 500.0) (float_range 0.5 500.0))
    (fun (d0, d1) ->
      let w = Weights.create ~t_emphasis:1.0 ~initial_delay:d0 () in
      Weights.observe w ~delay:d1;
      Weights.adapt w;
      Float.abs ((Weights.wt w *. d1) -. 1.0) < 1e-9)

(* --- fleet coordination (synthetic workers) --- *)

module Portfolio = Spr_anneal.Portfolio
module Scheduler = Spr_anneal.Scheduler

let test_exchange_strings () =
  List.iter
    (fun x ->
      match Portfolio.exchange_of_string (Portfolio.exchange_to_string x) with
      | Ok x' when x' = x -> ()
      | _ -> Alcotest.failf "round trip failed for %s" (Portfolio.exchange_to_string x))
    [ Portfolio.Independent; Portfolio.Best_exchange 1; Portfolio.Best_exchange 7 ];
  List.iter
    (fun s ->
      match Portfolio.exchange_of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "best"; "best:"; "best:0"; "best:-2"; "best:x"; "worst:3" ]

let exchange ?history ?persist ?frozen ~replicas n =
  Scheduler.create ~replicas (Scheduler.Exchange (Portfolio.Best_exchange n)) ?history ?persist
    ?frozen ()

let racing_policy = Scheduler.Racing { Scheduler.warmup = 2; every = 2; margin = 0.5; horizon = 4 }

let test_round_of () =
  let indep = Scheduler.create ~replicas:2 (Scheduler.Exchange Portfolio.Independent) () in
  Alcotest.(check (option int)) "independent never" None (Scheduler.round_of indep ~temp_index:4);
  let t = exchange ~replicas:2 2 in
  Alcotest.(check (option int)) "boundary 0" None (Scheduler.round_of t ~temp_index:0);
  Alcotest.(check (option int)) "boundary 1" None (Scheduler.round_of t ~temp_index:1);
  Alcotest.(check (option int)) "boundary 2" (Some 1) (Scheduler.round_of t ~temp_index:2);
  Alcotest.(check (option int)) "boundary 3" None (Scheduler.round_of t ~temp_index:3);
  Alcotest.(check (option int)) "boundary 6" (Some 3) (Scheduler.round_of t ~temp_index:6);
  let racing = Scheduler.create ~replicas:2 racing_policy () in
  Alcotest.(check (option int)) "racing warmup" None (Scheduler.round_of racing ~temp_index:2);
  Alcotest.(check (option int)) "racing past warmup" (Some 2)
    (Scheduler.round_of racing ~temp_index:4);
  let lone = exchange ~replicas:1 2 in
  Alcotest.(check (option int)) "a lone replica never meets" None
    (Scheduler.round_of lone ~temp_index:2)

(* Each synthetic replica walks six temperature boundaries with a fixed
   metric table; the exchange must pick the same leader on every run,
   no matter how the domains are scheduled. *)
let synthetic_metric ~replica ~round = float_of_int (((replica * 7) + (round * 3)) mod 5)

let run_synthetic_exchange () =
  let t = exchange ~replicas:3 2 in
  let adoptions = Array.make 3 [] in
  let worker k =
    for temp_index = 1 to 6 do
      let round = Option.value (Scheduler.round_of t ~temp_index) ~default:0 in
      match
        Scheduler.observe t ~replica:k ~temp_index
          ~metric:(synthetic_metric ~replica:k ~round)
          ~acceptance:0.0
          ~capture:(fun () -> Printf.sprintf "layout-%d-%d" k round)
      with
      | Scheduler.Continue -> ()
      | Scheduler.Adopt r -> adoptions.(k) <- (round, r.Scheduler.leader) :: adoptions.(k)
      | Scheduler.Kill _ -> Alcotest.fail "exchange never kills"
    done;
    Scheduler.finished t ~replica:k
  in
  let outcomes = Portfolio.run_replicas ~replicas:3 worker in
  Array.iter (function Error e -> raise e | Ok () -> ()) outcomes;
  (Scheduler.rounds t, adoptions)

let test_portfolio_barrier_deterministic () =
  let history, adoptions = run_synthetic_exchange () in
  Alcotest.(check int) "three rounds tripped" 3 (List.length history);
  List.iter
    (fun (r : Scheduler.round_record) ->
      (* The recorded leader is the true minimum (ties to the lowest
         replica index), with its own layout as payload, and kills
         nobody. *)
      let metrics = List.init 3 (fun k -> synthetic_metric ~replica:k ~round:r.round) in
      let best = List.fold_left min infinity metrics in
      Alcotest.(check (float 0.0)) "leader metric" best r.metric;
      Alcotest.(check int) "leader index"
        (fst (List.fold_left
                (fun (bi, i) m -> if m = best && bi < 0 then (i, i + 1) else (bi, i + 1))
                (-1, 0) metrics))
        r.leader;
      Alcotest.(check string) "payload is leader's"
        (Printf.sprintf "layout-%d-%d" r.leader r.round)
        r.payload;
      Alcotest.(check bool) "no kills" true (r.kills = []);
      (* Exactly the strictly-worse replicas adopted. *)
      for k = 0 to 2 do
        let adopted = List.mem_assoc r.round adoptions.(k) in
        let should = synthetic_metric ~replica:k ~round:r.round > best in
        if adopted <> should then
          Alcotest.failf "replica %d round %d: adopted=%b expected %b" k r.round adopted should
      done)
    history;
  (* Scheduling independence: a second run reproduces everything. *)
  let history2, adoptions2 = run_synthetic_exchange () in
  Alcotest.(check bool) "history reproducible" true (history = history2);
  Alcotest.(check bool) "adoptions reproducible" true (adoptions = adoptions2)

let test_portfolio_history_replay () =
  let history, _ = run_synthetic_exchange () in
  (* A resumed scheduler serves recorded rounds immediately: one
     replica alone (the other two never arrive) cannot deadlock. *)
  let t = exchange ~history ~replicas:3 2 in
  for temp_index = 1 to 6 do
    match Scheduler.round_of t ~temp_index with
    | None -> ()
    | Some round -> (
      let metric = synthetic_metric ~replica:2 ~round in
      match
        Scheduler.observe t ~replica:2 ~temp_index ~metric ~acceptance:0.0
          ~capture:(fun () -> "fresh")
      with
      | Scheduler.Adopt r when r.Scheduler.metric < metric -> ()
      | Scheduler.Adopt r ->
        Alcotest.failf "round %d: served a non-improving result (%g)" round r.Scheduler.metric
      | Scheduler.Kill _ -> Alcotest.fail "exchange never kills"
      | Scheduler.Continue ->
        let recorded = List.find (fun (r : Scheduler.round_record) -> r.round = round) history in
        if recorded.leader <> 2 && recorded.metric < metric then
          Alcotest.failf "round %d: improving record not served" round)
  done;
  Scheduler.finished t ~replica:2;
  Alcotest.(check bool) "history preserved" true (Scheduler.rounds t = history)

let test_portfolio_finished_unblocks () =
  let persisted = ref [] in
  let t = exchange ~persist:(fun r -> persisted := r :: !persisted) ~replicas:2 1 in
  (* Replica 1 never reaches a boundary; once it is done, replica 0 must
     trip rounds alone instead of waiting forever. *)
  Scheduler.finished t ~replica:1;
  (match
     Scheduler.observe t ~replica:0 ~temp_index:1 ~metric:3.0 ~acceptance:0.0
       ~capture:(fun () -> "solo")
   with
  | Scheduler.Continue -> ()
  | _ -> Alcotest.fail "sole participant acted on its own round");
  Alcotest.(check int) "round recorded" 1 (List.length (Scheduler.rounds t));
  Alcotest.(check int) "round persisted" 1 (List.length !persisted)

let test_portfolio_frozen () =
  let persisted = ref [] in
  let t =
    exchange ~persist:(fun r -> persisted := r :: !persisted) ~frozen:(fun () -> true)
      ~replicas:2 1
  in
  (match
     Scheduler.observe t ~replica:0 ~temp_index:1 ~metric:1.0 ~acceptance:0.0
       ~capture:(fun () -> "x")
   with
  | Scheduler.Continue -> ()
  | _ -> Alcotest.fail "frozen scheduler served a round");
  Alcotest.(check int) "nothing recorded" 0 (List.length (Scheduler.rounds t));
  Alcotest.(check int) "nothing persisted" 0 (List.length !persisted)

let test_run_replicas () =
  let outcomes =
    Portfolio.run_replicas ~replicas:4 (fun k ->
        if k = 2 then failwith "boom" else k * 10)
  in
  Alcotest.(check int) "four outcomes" 4 (Array.length outcomes);
  Array.iteri
    (fun k o ->
      match o, k with
      | Error (Failure m), 2 -> Alcotest.(check string) "error captured" "boom" m
      | Ok v, _ when k <> 2 -> Alcotest.(check int) "in order" (k * 10) v
      | _ -> Alcotest.failf "unexpected outcome at %d" k)
    outcomes

(* --- racing --- *)

let test_predictor_fit () =
  (* monotone: an exact line fits with zero residual and extrapolates *)
  (match Scheduler.Predictor.fit [ (1, 10.0); (2, 8.0); (3, 6.0); (4, 4.0) ] with
  | None -> Alcotest.fail "monotone series did not fit"
  | Some f ->
    Alcotest.(check (float 1e-9)) "slope" (-2.0) f.Scheduler.Predictor.slope;
    Alcotest.(check (float 1e-9)) "sigma" 0.0 f.Scheduler.Predictor.sigma;
    Alcotest.(check (float 1e-9)) "extrapolation" (-8.0)
      (Scheduler.Predictor.predict f ~at:10));
  (* plateau: zero slope, the prediction stays put arbitrarily far out *)
  (match Scheduler.Predictor.fit [ (1, 5.0); (2, 5.0); (3, 5.0) ] with
  | None -> Alcotest.fail "plateau did not fit"
  | Some f ->
    Alcotest.(check (float 1e-9)) "flat slope" 0.0 f.Scheduler.Predictor.slope;
    Alcotest.(check (float 1e-9)) "flat prediction" 5.0
      (Scheduler.Predictor.predict f ~at:100));
  (* noise raises sigma but the trend survives *)
  (match Scheduler.Predictor.fit [ (1, 10.0); (2, 9.2); (3, 8.9); (4, 8.0); (5, 7.6) ] with
  | None -> Alcotest.fail "noisy series did not fit"
  | Some f ->
    Alcotest.(check bool) "downward trend" true (f.Scheduler.Predictor.slope < 0.0);
    Alcotest.(check bool) "nonzero residual" true (f.Scheduler.Predictor.sigma > 0.0));
  (* under three points, or three points on one boundary: no fit *)
  Alcotest.(check bool) "two points" true
    (Scheduler.Predictor.fit [ (1, 1.0); (2, 2.0) ] = None);
  Alcotest.(check bool) "degenerate x" true
    (Scheduler.Predictor.fit [ (3, 1.0); (3, 2.0); (3, 5.0) ] = None)

(* Replica 0 improves ten times faster than replica 1, and both run
   cold (acceptance 0.2), so nothing shields the trailing replica from
   the predictor. *)
let slow_fast_metric ~replica ~temp_index =
  if replica = 0 then 100.0 -. (10.0 *. float_of_int temp_index)
  else 100.0 -. float_of_int temp_index

let run_synthetic_racing ?history ?persist () =
  let t = Scheduler.create ~replicas:2 racing_policy ?history ?persist () in
  let decisions = Array.make 2 [] in
  let worker k =
    for temp_index = 1 to 8 do
      match
        Scheduler.observe t ~replica:k ~temp_index
          ~metric:(slow_fast_metric ~replica:k ~temp_index)
          ~acceptance:0.2
          ~capture:(fun () -> Printf.sprintf "layout-%d-%d" k temp_index)
      with
      | Scheduler.Continue -> ()
      | d -> decisions.(k) <- (temp_index, d) :: decisions.(k)
    done;
    Scheduler.finished t ~replica:k
  in
  let outcomes = Portfolio.run_replicas ~replicas:2 worker in
  Array.iter (function Error e -> raise e | Ok () -> ()) outcomes;
  (Scheduler.rounds t, decisions)

(* The trailing replica is killed at boundary 4 (round 2, the first
   decision round past warmup with three fitted points) onto the first
   fresh stream, and — its fork fed the same slow trajectory — again at
   boundary 8 once the fork re-accumulates a fittable series. Boundary
   6 trips a round too, but the fork has only two post-kill samples, so
   it survives: no fit, no verdict. *)
let test_racing_kills_trailing () =
  let persisted = ref [] in
  let rounds, decisions =
    run_synthetic_racing ~persist:(fun r -> persisted := r :: !persisted) ()
  in
  Alcotest.(check int) "leader undisturbed" 0 (List.length decisions.(0));
  (match List.rev decisions.(1) with
  | [
   (4, Scheduler.Kill ({ round = 2; leader = 0; metric = m1; payload = p1; _ }, 2));
   (8, Scheduler.Kill ({ round = 4; leader = 0; payload = p2; _ }, 3));
  ] ->
    Alcotest.(check (float 1e-9)) "leader metric at the first kill" 60.0 m1;
    Alcotest.(check string) "leader layout adopted" "layout-0-4" p1;
    Alcotest.(check string) "fresh leader layout at the second kill" "layout-0-8" p2
  | _ -> Alcotest.fail "replica 1 was not killed at boundaries 4 and 8");
  (* Only killing rounds are reported and persisted, in round order. *)
  Alcotest.(check (list int)) "killing rounds" [ 2; 4 ]
    (List.map (fun (r : Scheduler.round_record) -> r.round) rounds);
  List.iter
    (fun (r : Scheduler.round_record) ->
      Alcotest.(check int) "leader recorded" 0 r.leader;
      match r.kills with
      | [ { Scheduler.k_replica = 1; k_stream } ] ->
        Alcotest.(check int) "streams allocated past the fleet" ((r.round / 2) + 1) k_stream
      | _ -> Alcotest.failf "round %d: unexpected kill set" r.round)
    rounds;
  Alcotest.(check bool) "persisted exactly the killing rounds" true
    (List.rev !persisted = rounds);
  (* Scheduling independence: a second fleet reproduces everything. *)
  let rounds2, decisions2 = run_synthetic_racing () in
  Alcotest.(check bool) "rounds reproducible" true (rounds = rounds2);
  Alcotest.(check bool) "decisions reproducible" true (decisions = decisions2)

(* Resume: recorded rounds serve their verdicts without a rendezvous,
   unrecorded (no-kill) rounds re-trip live against the shrunken fleet,
   and the solo survivor never deadlocks. *)
let test_racing_replay () =
  let history, _ = run_synthetic_racing () in
  let t = Scheduler.create ~replicas:2 racing_policy ~history () in
  Scheduler.finished t ~replica:0;
  let kills = ref [] in
  for temp_index = 1 to 8 do
    match
      Scheduler.observe t ~replica:1 ~temp_index
        ~metric:(slow_fast_metric ~replica:1 ~temp_index)
        ~acceptance:0.2
        ~capture:(fun () -> "fresh")
    with
    | Scheduler.Kill (r, stream) -> kills := (temp_index, r.round, stream, r.payload) :: !kills
    | Scheduler.Continue -> ()
    | Scheduler.Adopt _ -> Alcotest.fail "racing never adopts"
  done;
  Scheduler.finished t ~replica:1;
  Alcotest.(check bool) "recorded verdicts replayed" true
    ([ (4, 2, 2, "layout-0-4"); (8, 4, 3, "layout-0-8") ] = List.rev !kills);
  Alcotest.(check bool) "history preserved" true (Scheduler.rounds t = history)

(* A resumed replica preloads its checkpointed dynamics series, so the
   first post-resume decision round fits exactly the series the
   uninterrupted run would have: the kill still happens at boundary 4
   even though only the last sample arrives live. *)
let test_racing_preload () =
  let t = Scheduler.create ~replicas:2 racing_policy () in
  for k = 0 to 1 do
    Scheduler.preload t ~replica:k
      (List.init 3 (fun i ->
           let ti = i + 1 in
           (ti, slow_fast_metric ~replica:k ~temp_index:ti, 0.2)))
  done;
  let decisions = Array.make 2 [] in
  let worker k =
    (match
       Scheduler.observe t ~replica:k ~temp_index:4
         ~metric:(slow_fast_metric ~replica:k ~temp_index:4)
         ~acceptance:0.2
         ~capture:(fun () -> Printf.sprintf "layout-%d-4" k)
     with
    | Scheduler.Continue -> ()
    | d -> decisions.(k) <- d :: decisions.(k));
    Scheduler.finished t ~replica:k
  in
  let outcomes = Portfolio.run_replicas ~replicas:2 worker in
  Array.iter (function Error e -> raise e | Ok () -> ()) outcomes;
  (match decisions.(1) with
  | [ Scheduler.Kill ({ round = 2; leader = 0; _ }, 2) ] -> ()
  | _ -> Alcotest.fail "preloaded series did not reproduce the uninterrupted kill");
  Alcotest.(check int) "leader undisturbed" 0 (List.length decisions.(0))

let () =
  Alcotest.run "spr_anneal"
    [
      ( "engine",
        [
          Alcotest.test_case "optimizes toy problem" `Quick test_engine_optimizes;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "temperature callbacks" `Quick test_engine_temperature_callbacks;
          Alcotest.test_case "quench only improves" `Quick test_engine_quench_only_improves;
          Alcotest.test_case "no moves" `Quick test_engine_no_moves;
        ] );
      ( "weights",
        [
          Alcotest.test_case "cost formula" `Quick test_weights_cost;
          Alcotest.test_case "adaptation" `Quick test_weights_adapt;
          Alcotest.test_case "validation" `Quick test_weights_validation;
          qtest test_weights_normalized_invariant;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "exchange strings" `Quick test_exchange_strings;
          Alcotest.test_case "round schedule" `Quick test_round_of;
          Alcotest.test_case "barrier deterministic" `Quick
            test_portfolio_barrier_deterministic;
          Alcotest.test_case "history replay" `Quick test_portfolio_history_replay;
          Alcotest.test_case "finished unblocks" `Quick test_portfolio_finished_unblocks;
          Alcotest.test_case "frozen coordination" `Quick test_portfolio_frozen;
          Alcotest.test_case "run_replicas" `Quick test_run_replicas;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "predictor fit" `Quick test_predictor_fit;
          Alcotest.test_case "racing kills the trailing replica" `Quick
            test_racing_kills_trailing;
          Alcotest.test_case "recorded rounds replay" `Quick test_racing_replay;
          Alcotest.test_case "preloaded series resumes the fit" `Quick test_racing_preload;
        ] );
    ]
