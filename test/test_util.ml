module Rng = Spr_util.Rng
module Pqueue = Spr_util.Pqueue
module Interval = Spr_util.Interval
module Stats = Spr_util.Stats
module Journal = Spr_util.Journal
module Table = Spr_util.Table
module Bitset = Spr_util.Bitset
module Iqueue = Spr_util.Iqueue
module Clock = Spr_util.Clock

let qtest = QCheck_alcotest.to_alcotest

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_int_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let test_rng_float_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 3.5 in
    Alcotest.(check bool) "in [0,3.5)" true (v >= 0.0 && v < 3.5)
  done

let test_rng_int_covers () =
  (* Every residue of a small bound appears eventually. *)
  let rng = Rng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_split_independent () =
  let a = Rng.create 3 in
  let b = Rng.split a in
  Alcotest.(check bool) "split streams differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_stream_zero_is_create () =
  let a = Rng.create 17 and b = Rng.stream ~seed:17 ~index:0 in
  for _ = 1 to 64 do
    Alcotest.(check int64) "stream 0 = create" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_stream_determinism () =
  let a = Rng.stream ~seed:9 ~index:3 and b = Rng.stream ~seed:9 ~index:3 in
  for _ = 1 to 64 do
    Alcotest.(check int64) "same (seed, index) stream" (Rng.bits64 a) (Rng.bits64 b)
  done;
  Alcotest.check_raises "negative index" (Invalid_argument "Rng.stream: negative index")
    (fun () -> ignore (Rng.stream ~seed:9 ~index:(-1)))

(* The trap stream splitting avoids: with naive [create (seed + k)]
   derivation, replica k of seed s collides with replica k-1 of seed
   s+1. Adjacent-seed portfolios must explore genuinely different
   trajectories on every replica. *)
let test_rng_stream_adjacent_seeds_diverge () =
  let prefix g = List.init 32 (fun _ -> Rng.bits64 g) in
  for seed = 1 to 8 do
    for k = 0 to 3 do
      let here = prefix (Rng.stream ~seed ~index:k) in
      for k' = 0 to 3 do
        let there = prefix (Rng.stream ~seed:(seed + 1) ~index:k') in
        if here = there then
          Alcotest.failf "stream (%d,%d) collides with (%d,%d)" seed k (seed + 1) k'
      done
    done
  done

let test_rng_stream_indices_diverge () =
  let prefix g = List.init 32 (fun _ -> Rng.bits64 g) in
  let streams = List.init 6 (fun k -> (k, prefix (Rng.stream ~seed:5 ~index:k))) in
  List.iter
    (fun (i, a) ->
      List.iter
        (fun (j, b) ->
          if i < j && a = b then Alcotest.failf "streams %d and %d coincide" i j)
        streams)
    streams

let test_rng_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200 QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let arr = Array.init 30 Fun.id in
      Rng.shuffle_in_place rng arr;
      let sorted = Array.copy arr in
      Array.sort compare sorted;
      sorted = Array.init 30 Fun.id)

let test_rng_pick () =
  let rng = Rng.create 5 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "pick from array" true (Array.mem (Rng.pick rng arr) arr)
  done;
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.pick_list: empty list") (fun () ->
      ignore (Rng.pick_list rng []))

(* --- Pqueue --- *)

let test_pqueue_ordering =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:300
    QCheck.(list small_int)
    (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.add q k k) keys;
      let rec drain acc =
        match Pqueue.pop_min q with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

let test_pqueue_interleaved () =
  let q = Pqueue.create () in
  Pqueue.add q 5 "e";
  Pqueue.add q 1 "a";
  Alcotest.(check (option (pair int string))) "min first" (Some (1, "a")) (Pqueue.pop_min q);
  Pqueue.add q 3 "c";
  Pqueue.add q 0 "z";
  Alcotest.(check (option (pair int string))) "new min" (Some (0, "z")) (Pqueue.pop_min q);
  Alcotest.(check int) "length" 2 (Pqueue.length q);
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q);
  Alcotest.(check (option (pair int string))) "empty pop" None (Pqueue.pop_min q)

let test_pqueue_grows () =
  let q = Pqueue.create () in
  for i = 1000 downto 1 do
    Pqueue.add q i i
  done;
  Alcotest.(check (option (pair int int))) "min of 1000" (Some (1, 1)) (Pqueue.pop_min q);
  Alcotest.(check int) "999 left" 999 (Pqueue.length q)

(* --- Interval --- *)

let iv = QCheck.map (fun (a, b) -> Interval.make (min a b) (max a b)) QCheck.(pair (int_range 0 60) (int_range 0 60))

let test_interval_hull_covers =
  QCheck.Test.make ~name:"hull covers both intervals" ~count:300 (QCheck.pair iv iv)
    (fun (a, b) ->
      let h = Interval.hull a b in
      Interval.covers h a && Interval.covers h b)

let test_interval_overlap_symmetric =
  QCheck.Test.make ~name:"overlaps is symmetric" ~count:300 (QCheck.pair iv iv) (fun (a, b) ->
      Interval.overlaps a b = Interval.overlaps b a)

let test_interval_basic () =
  let a = Interval.make 2 5 in
  Alcotest.(check int) "length" 4 (Interval.length a);
  Alcotest.(check bool) "contains lo" true (Interval.contains a 2);
  Alcotest.(check bool) "contains hi" true (Interval.contains a 5);
  Alcotest.(check bool) "not contains" false (Interval.contains a 6);
  Alcotest.(check bool) "adjacent" true (Interval.adjacent a (Interval.make 6 8));
  Alcotest.(check bool) "not adjacent when overlapping" false
    (Interval.adjacent a (Interval.make 5 8));
  Alcotest.(check string) "to_string" "[2,5]" (Interval.to_string a);
  let p = Interval.point 3 in
  Alcotest.(check int) "point length" 1 (Interval.length p);
  let c = Interval.clamp (Interval.make 0 10) ~lo:4 ~hi:7 in
  Alcotest.(check int) "clamp lo" 4 c.Interval.lo;
  Alcotest.(check int) "clamp hi" 7 c.Interval.hi

let test_interval_covers_transitive =
  QCheck.Test.make ~name:"covers is transitive via hull" ~count:300 (QCheck.pair iv iv)
    (fun (a, b) -> if Interval.covers a b then Interval.hull a b = a else true)

(* --- Stats --- *)

let test_stats_against_direct =
  QCheck.Test.make ~name:"welford matches direct mean/variance" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 2 40) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var = List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. n in
      Float.abs (Stats.mean s -. mean) < 1e-9 && Float.abs (Stats.variance s -. var) < 1e-6)

let test_stats_minmax_reset () =
  let s = Stats.create () in
  Stats.add s 3.0;
  Stats.add s (-1.0);
  Stats.add s 7.0;
  Alcotest.(check (float 1e-12)) "min" (-1.0) (Stats.min_value s);
  Alcotest.(check (float 1e-12)) "max" 7.0 (Stats.max_value s);
  Alcotest.(check int) "count" 3 (Stats.count s);
  Stats.reset s;
  Alcotest.(check int) "reset count" 0 (Stats.count s);
  Alcotest.(check (float 1e-12)) "reset mean" 0.0 (Stats.mean s)

let test_stats_mean_of () =
  Alcotest.(check (float 1e-12)) "mean_of empty" 0.0 (Stats.mean_of []);
  Alcotest.(check (float 1e-12)) "mean_of" 2.0 (Stats.mean_of [ 1.0; 2.0; 3.0 ])

(* --- Journal --- *)

let test_journal_rollback_order () =
  let trace = ref [] in
  let j = Journal.create () in
  Journal.record j (fun () -> trace := 1 :: !trace);
  Journal.record j (fun () -> trace := 2 :: !trace);
  Journal.record j (fun () -> trace := 3 :: !trace);
  Journal.rollback j;
  (* Reverse order of recording: 3 first. *)
  Alcotest.(check (list int)) "reverse order" [ 1; 2; 3 ] !trace;
  Alcotest.(check int) "empty after rollback" 0 (Journal.depth j)

let test_journal_commit () =
  let x = ref 0 in
  let j = Journal.create () in
  x := 5;
  Journal.record j (fun () -> x := 0);
  Journal.commit j;
  Journal.rollback j;
  Alcotest.(check int) "commit forgets" 5 !x

let test_journal_rollback_to () =
  let x = ref [] in
  let j = Journal.create () in
  Journal.record j (fun () -> x := 1 :: !x);
  let m = Journal.mark j in
  Journal.record j (fun () -> x := 2 :: !x);
  Journal.record j (fun () -> x := 3 :: !x);
  Journal.rollback_to j m;
  Alcotest.(check (list int)) "only the tail rolled back" [ 2; 3 ] !x;
  Alcotest.(check int) "depth back at mark" m (Journal.depth j);
  Journal.rollback j;
  Alcotest.(check (list int)) "rest rolled back" [ 1; 2; 3 ] !x

let test_journal_restores_state =
  QCheck.Test.make ~name:"journaled array writes roll back exactly" ~count:200
    QCheck.(list (pair (int_range 0 9) (int_range 0 99)))
    (fun writes ->
      let arr = Array.init 10 Fun.id in
      let original = Array.copy arr in
      let j = Journal.create () in
      List.iter
        (fun (i, v) ->
          let old = arr.(i) in
          arr.(i) <- v;
          Journal.record j (fun () -> arr.(i) <- old))
        writes;
      Journal.rollback j;
      arr = original)

(* --- Bitset --- *)

let check_ok name = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e

let test_bitset_basic () =
  let s = Bitset.create ~capacity:10 in
  Alcotest.(check int) "capacity" 10 (Bitset.capacity s);
  Alcotest.(check bool) "fresh add" true (Bitset.add s 3);
  Alcotest.(check bool) "duplicate add" false (Bitset.add s 3);
  Alcotest.(check bool) "add another" true (Bitset.add s 7);
  Alcotest.(check bool) "mem" true (Bitset.mem s 3);
  Alcotest.(check bool) "not mem" false (Bitset.mem s 4);
  Alcotest.(check int) "cardinality" 2 (Bitset.cardinality s);
  Alcotest.(check (list int)) "ascending order" [ 3; 7 ] (Bitset.to_list s);
  Alcotest.(check bool) "remove" true (Bitset.remove s 3);
  Alcotest.(check bool) "remove absent" false (Bitset.remove s 3);
  Alcotest.(check (list int)) "after removal" [ 7 ] (Bitset.to_list s);
  Bitset.clear s;
  Alcotest.(check int) "cleared" 0 (Bitset.cardinality s);
  check_ok "bitset check" (Bitset.check s)

let test_bitset_rollback =
  QCheck.Test.make ~name:"bitset journal rollback restores set exactly" ~count:300
    QCheck.(pair (list (pair bool (int_range 0 19))) (list (pair bool (int_range 0 19))))
    (fun (setup, ops) ->
      let s = Bitset.create ~capacity:20 in
      List.iter (fun (add, i) -> ignore (if add then Bitset.add s i else Bitset.remove s i)) setup;
      let before = Bitset.to_list s in
      let j = Journal.create () in
      List.iter
        (fun (add, i) -> ignore (if add then Bitset.add ~j s i else Bitset.remove ~j s i))
        ops;
      (match Bitset.check s with Ok () -> () | Error e -> QCheck.Test.fail_report e);
      Journal.rollback j;
      (match Bitset.check s with Ok () -> () | Error e -> QCheck.Test.fail_report e);
      Bitset.to_list s = before)

(* --- Iqueue --- *)

let test_iqueue_ordering () =
  let q = Iqueue.create ~capacity:10 in
  Iqueue.add q 4 ~key:2;
  Iqueue.add q 1 ~key:5;
  Iqueue.add q 7 ~key:2;
  Iqueue.add q 0 ~key:9;
  (* Key descending, id descending on ties. *)
  Alcotest.(check (list int)) "queue order" [ 0; 1; 7; 4 ] (Iqueue.to_list q);
  Iqueue.add q 7 ~key:6;  (* re-key repositions *)
  Alcotest.(check (list int)) "re-keyed order" [ 0; 7; 1; 4 ] (Iqueue.to_list q);
  Alcotest.(check int) "key lookup" 6 (Iqueue.key q 7);
  Alcotest.(check bool) "remove" true (Iqueue.remove q 1);
  Alcotest.(check bool) "remove absent" false (Iqueue.remove q 1);
  Alcotest.(check (list int)) "after removal" [ 0; 7; 4 ] (Iqueue.to_list q);
  Alcotest.(check int) "length" 3 (Iqueue.length q);
  Alcotest.(check (list int)) "positional reads follow queue order" (Iqueue.to_list q)
    (List.init (Iqueue.length q) (Iqueue.nth q));
  Alcotest.check_raises "rank past the end" (Invalid_argument "Iqueue.nth: rank out of range")
    (fun () -> ignore (Iqueue.nth q 3));
  Alcotest.check_raises "min_int is not a key" (Invalid_argument "Iqueue.add: min_int is not a key")
    (fun () -> Iqueue.add q 2 ~key:min_int);
  check_ok "iqueue check" (Iqueue.check q)

(* Ids range over 0-299, well past the queue's initial element array, so
   growth, removal at every rank and re-keying all run. *)
let iqueue_ids = 300

let iqueue_pairs = QCheck.(list_of_size Gen.(0 -- 400) (pair (int_range 0 299) (int_range 0 19)))

let iqueue_ops =
  QCheck.(list_of_size Gen.(0 -- 400) (pair bool (pair (int_range 0 299) (int_range 0 19))))

let test_iqueue_canonical =
  QCheck.Test.make ~name:"iqueue order is canonical (insertion-history independent)" ~count:200
    iqueue_pairs
    (fun pairs ->
      (* Last write wins per id; any insertion order yields one layout. *)
      let q1 = Iqueue.create ~capacity:iqueue_ids and q2 = Iqueue.create ~capacity:iqueue_ids in
      List.iter (fun (id, key) -> Iqueue.add q1 id ~key) pairs;
      List.iter (fun (id, key) -> Iqueue.add q2 id ~key) (List.rev pairs);
      let final = Hashtbl.create 16 in
      List.iter (fun (id, key) -> Hashtbl.replace final id key) pairs;
      Hashtbl.iter (fun id key -> Iqueue.add q2 id ~key) final;
      (match Iqueue.check q1 with Ok () -> () | Error e -> QCheck.Test.fail_report e);
      Iqueue.to_list q1 = Iqueue.to_list q2)

let test_iqueue_rollback =
  QCheck.Test.make ~name:"iqueue journal rollback restores order bit-for-bit" ~count:300
    QCheck.(pair iqueue_pairs iqueue_ops)
    (fun (setup, ops) ->
      let q = Iqueue.create ~capacity:iqueue_ids in
      List.iter (fun (id, key) -> Iqueue.add q id ~key) setup;
      let before = List.map (fun id -> (id, Iqueue.key q id)) (Iqueue.to_list q) in
      let j = Journal.create () in
      List.iter
        (fun (add, (id, key)) ->
          if add then Iqueue.add ~j q id ~key else ignore (Iqueue.remove ~j q id))
        ops;
      (match Iqueue.check q with Ok () -> () | Error e -> QCheck.Test.fail_report e);
      Journal.rollback j;
      (match Iqueue.check q with Ok () -> () | Error e -> QCheck.Test.fail_report e);
      List.map (fun id -> (id, Iqueue.key q id)) (Iqueue.to_list q) = before)

(* The queue against a reference model: an association list from id to
   key, sorted by key descending and id descending on ties. *)
let test_iqueue_model =
  QCheck.Test.make ~name:"iqueue agrees with a sorted association list" ~count:300 iqueue_ops
    (fun ops ->
      let q = Iqueue.create ~capacity:iqueue_ids in
      let model =
        List.fold_left
          (fun model (add, (id, key)) ->
            let rest = List.remove_assoc id model in
            if add then begin
              Iqueue.add q id ~key;
              (id, key) :: rest
            end
            else begin
              let was_queued = Iqueue.remove q id in
              if was_queued <> List.mem_assoc id model then
                QCheck.Test.fail_reportf "remove %d answered %b" id was_queued;
              rest
            end)
          [] ops
      in
      let model = List.sort (fun (a, ka) (b, kb) -> compare (kb, b) (ka, a)) model in
      (match Iqueue.check q with Ok () -> () | Error e -> QCheck.Test.fail_report e);
      Iqueue.to_list q = List.map fst model
      && Iqueue.length q = List.length model
      && List.init (Iqueue.length q) (Iqueue.nth q) = List.map fst model
      && List.for_all (fun (id, key) -> Iqueue.key q id = key) model
      && List.for_all
           (fun id -> Iqueue.mem q id = List.mem_assoc id model)
           (List.init iqueue_ids Fun.id))

(* --- Table --- *)

let test_table_render () =
  let out =
    Table.render ~align:[ Table.Left; Table.Right ] ~header:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "long-name"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: rule :: _ ->
    Alcotest.(check bool) "header has both columns" true
      (String.length header >= String.length "name  value");
    Alcotest.(check bool) "rule is dashes" true (String.for_all (fun c -> c = '-' || c = ' ') rule)
  | _ -> Alcotest.fail "too few lines");
  Alcotest.(check int) "line count: header+rule+2 rows+trailing" 5 (List.length lines)

(* --- Clock --- *)

(* Each replica domain reads [now] on its own; the shared guard must
   keep every domain's readings non-decreasing. *)
let test_clock_monotonic_across_domains () =
  let readings () = Array.init 20_000 (fun _ -> Clock.now ()) in
  let others = List.init 2 (fun _ -> Domain.spawn readings) in
  let mine = readings () in
  List.iter
    (fun ts ->
      for i = 1 to Array.length ts - 1 do
        if ts.(i) < ts.(i - 1) then Alcotest.failf "now stepped back at reading %d" i
      done)
    (mine :: List.map Domain.join others)

let test_clock_stopwatch () =
  let sw = Clock.start () in
  let e1 = Clock.elapsed sw in
  let e2 = Clock.elapsed sw in
  Alcotest.(check bool) "elapsed is non-negative" true (e1 >= 0.0);
  Alcotest.(check bool) "elapsed never shrinks" true (e2 >= e1);
  Alcotest.(check bool) "cpu time is non-negative" true (Clock.cpu () >= 0.0)

(* --- persistence helpers --- *)

(* Fleet replicas create their shared run directory concurrently; a
   creator that loses the race must find the directory, not an error. *)
let test_ensure_dir_concurrent () =
  let path = "util-ensure-dir" in
  for _ = 1 to 50 do
    if Sys.file_exists path then Sys.rmdir path;
    let go = Atomic.make false in
    let creators =
      List.init 3 (fun _ ->
          Domain.spawn (fun () ->
              while not (Atomic.get go) do
                Domain.cpu_relax ()
              done;
              Spr_util.Persist.ensure_dir path))
    in
    Atomic.set go true;
    List.iter Domain.join creators;
    Alcotest.(check bool) "directory exists" true (Sys.is_directory path)
  done;
  Sys.rmdir path

let () =
  Alcotest.run "spr_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "int covers residues" `Quick test_rng_int_covers;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "stream 0 is create" `Quick test_rng_stream_zero_is_create;
          Alcotest.test_case "stream determinism" `Quick test_rng_stream_determinism;
          Alcotest.test_case "adjacent seeds diverge" `Quick
            test_rng_stream_adjacent_seeds_diverge;
          Alcotest.test_case "stream indices diverge" `Quick test_rng_stream_indices_diverge;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          qtest test_rng_int_bounds;
          qtest test_rng_shuffle_permutes;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "interleaved ops" `Quick test_pqueue_interleaved;
          Alcotest.test_case "growth" `Quick test_pqueue_grows;
          qtest test_pqueue_ordering;
        ] );
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basic;
          qtest test_interval_hull_covers;
          qtest test_interval_overlap_symmetric;
          qtest test_interval_covers_transitive;
        ] );
      ( "stats",
        [
          Alcotest.test_case "min/max/reset" `Quick test_stats_minmax_reset;
          Alcotest.test_case "mean_of" `Quick test_stats_mean_of;
          qtest test_stats_against_direct;
        ] );
      ( "journal",
        [
          Alcotest.test_case "rollback order" `Quick test_journal_rollback_order;
          Alcotest.test_case "commit" `Quick test_journal_commit;
          Alcotest.test_case "rollback_to mark" `Quick test_journal_rollback_to;
          qtest test_journal_restores_state;
        ] );
      ( "bitset",
        [ Alcotest.test_case "basics" `Quick test_bitset_basic; qtest test_bitset_rollback ] );
      ( "iqueue",
        [
          Alcotest.test_case "retry order" `Quick test_iqueue_ordering;
          qtest test_iqueue_canonical;
          qtest test_iqueue_rollback;
          qtest test_iqueue_model;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
      (* The longest group name sets the width of Alcotest's name column
         and so where long test names are cut in the report: keep it at
         ten characters so the printed names stay the same. *)
      ( "wall_clock",
        [
          Alcotest.test_case "now is monotonic across domains" `Quick
            test_clock_monotonic_across_domains;
          Alcotest.test_case "stopwatch" `Quick test_clock_stopwatch;
        ] );
      ( "persist",
        [
          Alcotest.test_case "ensure_dir tolerates concurrent creators" `Quick
            test_ensure_dir_concurrent;
        ] );
    ]
