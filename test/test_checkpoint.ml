(* Checkpoint save/restore and ECO edits. *)

module Cp = Spr_core.Checkpoint
module Eco = Spr_core.Eco
module Rs = Spr_route.Route_state
module Router = Spr_route.Router
module P = Spr_layout.Placement
module Arch = Spr_arch.Arch
module Nl = Spr_netlist.Netlist
module Gen = Spr_netlist.Generator
module Rng = Spr_util.Rng
module Sta = Spr_timing.Sta

let qtest = QCheck_alcotest.to_alcotest

let routed_state ?(n_cells = 60) ?(seed = 5) ?(tracks = 22) () =
  let nl = Gen.generate (Gen.default ~n_cells) ~seed in
  let arch = Arch.size_for ~tracks nl in
  let place = P.create_exn arch nl ~rng:(Rng.create (seed + 1)) in
  let st = Rs.create place in
  Router.route_all st;
  (st, nl)

(* --- Checkpoint --- *)

let test_roundtrip () =
  let st, nl = routed_state () in
  let text = Cp.to_string st in
  match Cp.of_string nl text with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok st2 ->
    Alcotest.(check string) "identical routing state" (Rs.snapshot st) (Rs.snapshot st2);
    (* placements agree *)
    for c = 0 to Nl.n_cells nl - 1 do
      Alcotest.(check bool) "same slot" true
        (P.slot_of (Rs.place st) c = P.slot_of (Rs.place st2) c);
      Alcotest.(check int) "same pinmap"
        (P.pinmap_index (Rs.place st) c)
        (P.pinmap_index (Rs.place st2) c)
    done

let test_roundtrip_many =
  QCheck.Test.make ~name:"checkpoint round-trips arbitrary layouts" ~count:10 QCheck.small_int
    (fun seed ->
      let st, nl = routed_state ~seed:(seed mod 13) () in
      match Cp.of_string nl (Cp.to_string st) with
      | Error _ -> false
      | Ok st2 -> Rs.snapshot st = Rs.snapshot st2)

let test_roundtrip_timing_identical () =
  let st, nl = routed_state () in
  let sta = Sta.create Spr_timing.Delay_model.default st in
  match Cp.of_string nl (Cp.to_string st) with
  | Error e -> Alcotest.fail e
  | Ok st2 ->
    let sta2 = Sta.create Spr_timing.Delay_model.default st2 in
    Alcotest.(check (float 1e-9)) "same critical delay" (Sta.critical_delay sta)
      (Sta.critical_delay sta2)

let test_file_roundtrip () =
  let st, nl = routed_state () in
  let path = Filename.temp_file "spr_ckpt" ".txt" in
  Cp.save st path;
  let restored = Cp.load nl path in
  Sys.remove path;
  match restored with
  | Error e -> Alcotest.fail e
  | Ok st2 -> Alcotest.(check string) "file roundtrip" (Rs.snapshot st) (Rs.snapshot st2)

let test_design_mismatch () =
  let st, _ = routed_state ~n_cells:60 () in
  let other = Gen.generate (Gen.default ~n_cells:80) ~seed:9 in
  match Cp.of_string other (Cp.to_string st) with
  | Error e -> Alcotest.(check bool) "mentions mismatch" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "mismatched design accepted"

let test_corrupt_inputs () =
  let st, nl = routed_state () in
  let text = Cp.to_string st in
  (* truncation *)
  (match Cp.of_string nl (String.sub text 0 (String.length text / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated checkpoint accepted");
  (* garbage line *)
  (match Cp.of_string nl ("garbage here\n" ^ text) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (* double-claimed spine: duplicate the first vroute line *)
  let lines = String.split_on_char '\n' text in
  let vlines = List.filter (fun l -> String.length l > 6 && String.sub l 0 6 = "vroute") lines in
  match vlines with
  | [] -> ()
  | v :: _ -> (
    let doubled =
      String.concat "\n"
        (List.concat_map (fun l -> if l = v then [ l; l ] else [ l ]) lines)
    in
    match Cp.of_string nl doubled with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "doubled vroute accepted")

(* Out-of-range, negative and malformed values for a numeric field. *)
let splice_values =
  [ "-3"; "0"; "-1"; "1"; "3"; "x"; ""; "99999"; "-99999"; "99999999999999999999"; "1 2" ]

(* One of [Mutate.all ~values:splice_values], drawn at random. Layout
   text and round records hold no quoted strings, so every value field
   is a run of digits. *)
let random_mutation rng text =
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  match Rng.int rng 3 with
  | 0 -> String.sub text 0 (Rng.int rng (String.length text + 1))
  | 1 ->
    let i = Rng.int rng (String.length text) in
    Mutate.flip text i (pick (Mutate.flip_chars text.[i]))
  | _ ->
    let at, len = pick (Mutate.value_fields text) in
    Mutate.splice text ~at ~len (pick splice_values)

(* The v1 loader's property: on any input it returns [Error] or a state
   that passes full validation, and it never raises. *)
let loads_as_error_or_valid nl text =
  match Cp.of_string nl text with
  | Error _ -> true
  | Ok st -> Rs.check st = Ok ()
  | exception e -> QCheck.Test.fail_reportf "of_string raised %s" (Printexc.to_string e)

let test_fuzzed_checkpoints_never_invalid =
  (* Randomly drop or duplicate lines, cut the text, flip a byte, or
     splice an out-of-range, negative or malformed value into one
     numeric field. *)
  QCheck.Test.make ~name:"fuzzed checkpoints load as Error or valid state" ~count:40
    QCheck.small_int (fun seed ->
      let st, nl = routed_state () in
      let text = Cp.to_string st in
      let rng = Rng.create seed in
      let lines = String.split_on_char '\n' text in
      let dropped_or_doubled =
        List.concat_map
          (fun line ->
            match Rng.int rng 12 with
            | 0 -> []  (* drop *)
            | 1 -> [ line; line ]  (* duplicate *)
            | _ -> [ line ])
          lines
      in
      loads_as_error_or_valid nl (String.concat "\n" dropped_or_doubled)
      && loads_as_error_or_valid nl (random_mutation rng text))

(* Every truncation, every byte flip and every numeric field spliced, on
   a design small enough to try them all. *)
let test_checkpoint_mutations () =
  let st, nl = routed_state ~n_cells:12 ~tracks:10 () in
  List.iter
    (fun text ->
      if not (loads_as_error_or_valid nl text) then
        Alcotest.failf "mutated checkpoint loaded as an invalid state:\n%s" text)
    (Mutate.all ~values:splice_values (Cp.to_string st))

(* --- v2 snapshots: adversarial inputs and rotation fallback --- *)

module Tool = Spr_core.Tool
module Crash = Spr_check.Crash

let rec rmrf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rmrf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* An interrupted run leaves a rotation of real v2 snapshots behind. *)
let interrupted_run_dir name =
  let nl = Gen.generate (Gen.default ~n_cells:40) ~seed:3 in
  let arch = Arch.size_for ~tracks:16 nl in
  let dir = "v2-" ^ name in
  rmrf dir;
  let config =
    Tool.Config.(
      default |> with_seed 3
      |> with_anneal
           {
             (Spr_anneal.Engine.default_config ~n:40) with
             Spr_anneal.Engine.moves_per_temp = 120;
             warmup_moves = 120;
             max_temperatures = 8;
           }
      |> with_run_dir dir |> with_max_moves 400)
  in
  let r = Tool.best_result (Tool.run_exn ~config arch nl) in
  (match r.Tool.status with
  | Tool.Interrupted _ -> ()
  | Tool.Completed -> Alcotest.fail "setup run unexpectedly completed");
  (dir, nl, arch, config)

let read_file path =
  match Spr_util.Persist.read_file path with
  | Ok text -> text
  | Error e -> Alcotest.failf "%s: %s" path e

let newest_snapshot dir =
  match Cp.V2.snapshot_files dir with
  | [] -> Alcotest.fail "no snapshots written"
  | (seq, path) :: _ -> (seq, path)

let expect_error label = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: corrupted snapshot accepted" label

let has_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
  n = 0 || scan 0

let test_v2_roundtrip () =
  let dir, nl, _, _ = interrupted_run_dir "roundtrip" in
  let _, path = newest_snapshot dir in
  (match Cp.V2.load_file nl path with
  | Error e -> Alcotest.failf "load_file: %s" e
  | Ok (payload, current) -> (
    (* Re-encoding the decoded state must describe the same run state.
       The embedded current-layout block is order-insensitive (restore
       replays claims, which canonicalizes line order), so compare
       canonical snapshots; every other payload field — floats, RNG
       stream, best-layout bytes — must survive exactly. *)
    match Cp.V2.decode nl (Cp.V2.encode payload ~current) with
    | Error e -> Alcotest.failf "re-decode: %s" e
    | Ok (payload2, current2) ->
      Alcotest.(check bool) "payload survives re-encode" true (payload = payload2);
      Alcotest.(check string) "current layout survives re-encode" (Rs.snapshot current)
        (Rs.snapshot current2);
      (match Cp.of_string nl payload.Cp.V2.best_layout with
      | Error e -> Alcotest.failf "embedded best layout: %s" e
      | Ok _ -> ())));
  rmrf dir

let test_v2_adversarial_inputs () =
  let dir, nl, _, _ = interrupted_run_dir "adversarial" in
  let _, path = newest_snapshot dir in
  let text = read_file path in
  expect_error "empty file" (Cp.V2.decode nl "");
  expect_error "header only" (Cp.V2.decode nl (String.sub text 0 (String.index text '\n' + 1)));
  expect_error "truncated mid-payload"
    (Cp.V2.decode nl (String.sub text 0 (String.length text / 2)));
  expect_error "truncated by one byte"
    (Cp.V2.decode nl (String.sub text 0 (String.length text - 1)));
  let flip at s =
    let b = Bytes.of_string s in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xFF));
    Bytes.to_string b
  in
  expect_error "flipped header byte" (Cp.V2.decode nl (flip 4 text));
  expect_error "flipped body byte" (Cp.V2.decode nl (flip (String.length text / 2) text));
  expect_error "flipped final byte" (Cp.V2.decode nl (flip (String.length text - 2) text));
  (* A v2 file fed to the v1 loader must be a clean version error. *)
  (match Cp.of_string nl text with
  | Error e ->
    Alcotest.(check bool) "v1 loader names the version" true (has_substring ~sub:"version" e)
  | Ok _ -> Alcotest.fail "v1 loader accepted a v2 snapshot");
  (* And a v1 layout fed to the v2 loader likewise. *)
  let st, _ = routed_state ~n_cells:40 ~seed:3 ~tracks:16 () in
  expect_error "v1 text in v2 loader" (Cp.V2.decode nl (Cp.to_string st));
  rmrf dir

let test_v2_rotation_fallback () =
  let dir, nl, _, _ = interrupted_run_dir "fallback" in
  let files = Cp.V2.snapshot_files dir in
  if List.length files < 2 then Alcotest.fail "setup run left fewer than 2 snapshots";
  let newest_seq, newest_path = List.nth files 0 in
  let second_seq, _ = List.nth files 1 in
  (* Truncate the newest snapshot, as a crash mid-write (without the
     atomic rename) would: the loader must fall back to the previous
     rotation entry. *)
  Crash.truncate_file newest_path ~keep:200;
  (match Cp.V2.load_latest nl ~dir with
  | Error e -> Alcotest.failf "no fallback after truncation: %s" e
  | Ok loaded -> Alcotest.(check int) "fell back one entry" second_seq loaded.Cp.V2.seq);
  (* Restore-by-rerun is overkill; corrupt the (already truncated)
     newest differently and make sure fallback still skips it. *)
  Crash.flip_byte newest_path ~at:50;
  (match Cp.V2.load_latest nl ~dir with
  | Error e -> Alcotest.failf "no fallback after byte flip: %s" e
  | Ok loaded -> Alcotest.(check int) "still falls back" second_seq loaded.Cp.V2.seq);
  (* Damage every snapshot: the loader must report, not raise, and the
     message must account for each file. *)
  List.iter (fun (_, path) -> Crash.truncate_file path ~keep:60) files;
  (match Cp.V2.load_latest nl ~dir with
  | Error e ->
    List.iter
      (fun (seq, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "error mentions snapshot %d" seq)
          true
          (has_substring ~sub:(Printf.sprintf "snap-%08d.ckpt" seq) e))
      files
  | Ok _ -> Alcotest.fail "fully corrupted rotation accepted");
  ignore newest_seq;
  rmrf dir

(* Replica-tagged rotations share a run directory without seeing each
   other (or the serial scan). *)
let test_v2_replica_isolation () =
  let dir = "v2-replicas" in
  rmrf dir;
  Spr_util.Persist.ensure_dir dir;
  Alcotest.(check string) "replica path shape"
    (Filename.concat dir "snap-r2-00000007.ckpt")
    (Cp.V2.snapshot_path ~replica:2 dir 7);
  (* fake rotation entries are enough to test the scan *)
  let touch path = Spr_util.Persist.atomic_write path "stub" in
  touch (Cp.V2.snapshot_path dir 3);
  touch (Cp.V2.snapshot_path ~replica:0 dir 1);
  touch (Cp.V2.snapshot_path ~replica:0 dir 2);
  touch (Cp.V2.snapshot_path ~replica:1 dir 9);
  Alcotest.(check (list int)) "serial scan sees only untagged" [ 3 ]
    (List.map fst (Cp.V2.snapshot_files dir));
  Alcotest.(check (list int)) "replica 0 rotation" [ 2; 1 ]
    (List.map fst (Cp.V2.snapshot_files ~replica:0 dir));
  Alcotest.(check (list int)) "replica 1 rotation" [ 9 ]
    (List.map fst (Cp.V2.snapshot_files ~replica:1 dir));
  Alcotest.(check int) "replica next_seq" 3 (Cp.V2.next_seq ~replica:0 dir);
  Alcotest.(check int) "serial next_seq" 4 (Cp.V2.next_seq dir);
  Alcotest.(check int) "unseen replica next_seq" 1 (Cp.V2.next_seq ~replica:7 dir);
  rmrf dir

(* --- round records --- *)

module Sc = Spr_anneal.Scheduler

let exchange_round =
  {
    Sc.round = 4;
    leader = 2;
    metric = 17.25e9 +. 0.125;
    payload = "line one\nline two\n\x00binary\xff";
  }

(* A record framed the way every version writes it, around a body
   given line by line. *)
let framed body =
  Printf.sprintf "spr-sched 1 %s %d\n%s" (Spr_util.Persist.checksum_hex body) (String.length body)
    body

(* A record as written while fleets could also kill replicas: an
   exchange round kept a [kills 0] line, a killing round listed one
   [kill <replica> <stream>] line per kill. *)
let legacy_record ~kills (r : Sc.round_record) =
  framed
    (Printf.sprintf "round %d %d %s\nkills %d\n%slayout %d\n%s" r.Sc.round r.Sc.leader
       (Spr_util.Persist.float_to_hex r.Sc.metric)
       (List.length kills)
       (String.concat "" (List.map (fun (k, s) -> Printf.sprintf "kill %d %d\n" k s) kills))
       (String.length r.Sc.payload) r.Sc.payload)

let killing_record = legacy_record ~kills:[ (1, 3); (2, 4) ] { exchange_round with Sc.round = 6 }

let test_exchange_roundtrip () =
  (match Cp.Round.decode (Cp.Round.encode exchange_round) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok r' -> Alcotest.(check bool) "identity" true (r' = exchange_round));
  (* old run directories still resume: their exchange rounds say
     [kills 0], and a record that killed replicas is refused *)
  Alcotest.(check string) "the encoding keeps its kills 0 line"
    (legacy_record ~kills:[] exchange_round)
    (Cp.Round.encode exchange_round);
  (match Cp.Round.decode (legacy_record ~kills:[] exchange_round) with
  | Ok r -> Alcotest.(check bool) "a kills 0 record decodes" true (r = exchange_round)
  | Error e -> Alcotest.failf "a kills 0 record was refused: %s" e);
  (match Cp.Round.decode killing_record with
  | Ok _ -> Alcotest.fail "a record with kill lines decoded"
  | Error _ -> ());
  let dir = "round-rt" in
  rmrf dir;
  Spr_util.Persist.ensure_dir dir;
  let path = Cp.Round.write ~dir exchange_round in
  Alcotest.(check string) "round-numbered file" (Cp.Round.record_path dir 4) path;
  Alcotest.(check string) "sched file name" "sched-00000004.rec" (Filename.basename path);
  let earlier = { exchange_round with Sc.round = 2; payload = "p2" } in
  let later = { exchange_round with Sc.round = 6; leader = 0 } in
  ignore (Cp.Round.write ~dir earlier);
  ignore (Cp.Round.write ~dir later);
  Alcotest.(check bool) "load_all sorted ascending" true
    (Cp.Round.load_all ~dir = [ earlier; exchange_round; later ]);
  rmrf dir

let test_exchange_corruption () =
  let text = Cp.Round.encode exchange_round in
  (* truncation, checksum damage, garbage: errors, never exceptions;
     load_all just skips the bad record *)
  List.iter
    (fun (label, bad) ->
      match Cp.Round.decode bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" label)
    [
      ("truncated", String.sub text 0 (String.length text - 3));
      ("flipped byte", String.mapi (fun i c -> if i = 30 then 'Z' else c) text);
      ("garbage", "not a record at all");
      ("empty", "");
    ];
  let dir = "round-corrupt" in
  rmrf dir;
  Spr_util.Persist.ensure_dir dir;
  ignore (Cp.Round.write ~dir exchange_round);
  let victim = Cp.Round.record_path dir 4 in
  Crash.truncate_file victim ~keep:20;
  Alcotest.(check bool) "torn record skipped" true (Cp.Round.load_all ~dir = []);
  rmrf dir

(* The decoder property: on any input it returns [Error] or a record
   whose round and leader are in range, and it never raises. Each
   mutation is tried as is and re-framed under a header with the right
   length and checksum, so the body parser sees it too. *)
let reframe text =
  match String.index_opt text '\n' with
  | None -> text
  | Some i -> framed (String.sub text (i + 1) (String.length text - i - 1))

let decodes_in_range text =
  List.for_all
    (fun t ->
      match Cp.Round.decode t with
      | Error _ -> true
      | Ok r -> r.Sc.round >= 1 && r.Sc.leader >= 0
      | exception e -> QCheck.Test.fail_reportf "decode raised %s" (Printexc.to_string e))
    [ text; reframe text ]

let test_round_record_mutations () =
  List.iter
    (fun text ->
      List.iter
        (fun text ->
          if not (decodes_in_range text) then
            Alcotest.failf "mutated record decoded out of range:\n%S" text)
        (Mutate.all ~values:splice_values text))
    [ Cp.Round.encode exchange_round; killing_record ]

let test_round_record_garbage =
  QCheck.Test.make ~name:"random garbage splices decode in range" ~count:500
    QCheck.(quad bool small_nat small_nat (string_of_size (Gen.int_range 0 12)))
    (fun (kills, at, len, garbage) ->
      let text = if kills then killing_record else Cp.Round.encode exchange_round in
      let at = at mod (String.length text + 1) in
      let len = min len (String.length text - at) in
      decodes_in_range (Mutate.splice text ~at ~len garbage))

(* --- Eco --- *)

let make_eco () =
  let st, nl = routed_state ~tracks:26 () in
  let sta = Sta.create Spr_timing.Delay_model.default st in
  (Eco.create st sta, st, nl)

let test_eco_swap_commit () =
  let eco, st, nl = make_eco () in
  (* find two comb cells to swap *)
  let combs =
    List.filter
      (fun c ->
        Spr_netlist.Cell_kind.equal (Nl.cell nl c).Nl.kind Spr_netlist.Cell_kind.Comb)
      (List.init (Nl.n_cells nl) Fun.id)
  in
  match combs with
  | a :: b :: _ -> (
    match Eco.swap_cells eco a b with
    | Error e -> Alcotest.fail e
    | Ok delta ->
      Alcotest.(check bool) "pending" true (Eco.pending eco);
      Alcotest.(check (list int)) "moved cells" (List.sort compare [ a; b ])
        (List.sort compare delta.Eco.moved_cells);
      Alcotest.(check bool) "delay fields populated" true (delta.Eco.delay_after_ns > 0.0);
      Eco.commit eco;
      Alcotest.(check bool) "not pending after commit" false (Eco.pending eco);
      (match Rs.check st with
      | Ok () -> ()
      | Error e -> Alcotest.failf "state invalid after commit: %s" e);
      (* the swap really happened *)
      Alcotest.(check bool) "cells actually swapped" true
        (P.slot_of (Rs.place st) a <> P.slot_of (Rs.place st) b))
  | _ -> Alcotest.fail "not enough comb cells"

let test_eco_rollback_exact () =
  let eco, st, nl = make_eco () in
  let before = Rs.snapshot st in
  let delay_before = Eco.critical_delay eco in
  (match Eco.swap_cells eco 0 1 with
  | Error _ -> ()  (* an illegal pair is fine for this test *)
  | Ok _ -> Eco.rollback eco);
  Alcotest.(check string) "state restored" before (Rs.snapshot st);
  Alcotest.(check (float 1e-9)) "delay restored" delay_before (Eco.critical_delay eco);
  ignore nl

let test_eco_move_to_empty () =
  let eco, st, nl = make_eco () in
  (* find an empty interior slot *)
  let arch = Rs.arch st in
  let place = Rs.place st in
  let empty = ref None in
  for row = 1 to arch.Arch.rows - 2 do
    for col = 1 to arch.Arch.cols - 2 do
      if !empty = None && P.cell_at place { P.row; col } = None then
        empty := Some { P.row; col }
    done
  done;
  (* find a comb cell *)
  let comb =
    List.find
      (fun c ->
        Spr_netlist.Cell_kind.equal (Nl.cell nl c).Nl.kind Spr_netlist.Cell_kind.Comb)
      (List.init (Nl.n_cells nl) Fun.id)
  in
  match !empty with
  | None -> ()  (* fully packed fabric; nothing to test *)
  | Some dest -> (
    match Eco.move_cell eco ~cell:comb ~dest with
    | Error e -> Alcotest.fail e
    | Ok _ ->
      Eco.commit eco;
      Alcotest.(check bool) "cell moved" true (P.slot_of place comb = dest))

let test_eco_illegal_moves () =
  let eco, st, nl = make_eco () in
  let arch = Rs.arch st in
  (* a pad cannot move to the interior *)
  let pad =
    List.find
      (fun c -> Spr_netlist.Cell_kind.is_io (Nl.cell nl c).Nl.kind)
      (List.init (Nl.n_cells nl) Fun.id)
  in
  let interior = { P.row = arch.Arch.rows / 2; col = arch.Arch.cols / 2 } in
  (match Eco.move_cell eco ~cell:pad ~dest:interior with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pad moved into the interior");
  (* self swap *)
  (match Eco.swap_cells eco 3 3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "self swap accepted");
  (* same pinmap *)
  match Eco.set_pinmap eco ~cell:3 ~index:(P.pinmap_index (Rs.place st) 3) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no-op pinmap accepted"

let test_eco_pending_guard () =
  let eco, _, _ = make_eco () in
  match Eco.swap_cells eco 0 1 with
  | Error _ -> ()
  | Ok _ -> (
    match Eco.swap_cells eco 2 3 with
    | Error _ -> Eco.rollback eco
    | Ok _ -> Alcotest.fail "second edit accepted while pending")

let test_eco_pinmap_edit () =
  let eco, st, nl = make_eco () in
  let cell = 0 in
  if P.palette_size (Rs.place st) cell >= 2 then begin
    let old_idx = P.pinmap_index (Rs.place st) cell in
    let index = (old_idx + 1) mod P.palette_size (Rs.place st) cell in
    match Eco.set_pinmap eco ~cell ~index with
    | Error e -> Alcotest.fail e
    | Ok delta ->
      Alcotest.(check (list int)) "only this cell" [ cell ] delta.Eco.moved_cells;
      Eco.commit eco;
      Alcotest.(check int) "pinmap changed" index (P.pinmap_index (Rs.place st) cell);
      match Rs.check st with
      | Ok () -> ()
      | Error e -> Alcotest.failf "state invalid: %s" e
  end;
  ignore nl

let () =
  Alcotest.run "spr_checkpoint_eco"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "timing identical after restore" `Quick
            test_roundtrip_timing_identical;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "design mismatch rejected" `Quick test_design_mismatch;
          Alcotest.test_case "corrupt inputs rejected" `Quick test_corrupt_inputs;
          qtest test_roundtrip_many;
          qtest test_fuzzed_checkpoints_never_invalid;
          Alcotest.test_case "truncations, flips and field splices load as Error or valid state"
            `Quick test_checkpoint_mutations;
        ] );
      ( "checkpoint-v2",
        [
          Alcotest.test_case "encode/decode identity on a real snapshot" `Slow test_v2_roundtrip;
          Alcotest.test_case "adversarial inputs are errors, never raises" `Slow
            test_v2_adversarial_inputs;
          Alcotest.test_case "corrupt newest falls back to older rotation entry" `Slow
            test_v2_rotation_fallback;
          Alcotest.test_case "replica rotations are isolated" `Quick test_v2_replica_isolation;
        ] );
      ( "exchange",
        [
          Alcotest.test_case "record roundtrip" `Quick test_exchange_roundtrip;
          Alcotest.test_case "corruption detected" `Quick test_exchange_corruption;
        ] );
      ( "round-record",
        [
          Alcotest.test_case "truncations, flips and field splices decode in range" `Quick
            test_round_record_mutations;
          qtest test_round_record_garbage;
        ] );
      ( "eco",
        [
          Alcotest.test_case "swap and commit" `Quick test_eco_swap_commit;
          Alcotest.test_case "rollback is exact" `Quick test_eco_rollback_exact;
          Alcotest.test_case "move to empty slot" `Quick test_eco_move_to_empty;
          Alcotest.test_case "illegal edits rejected" `Quick test_eco_illegal_moves;
          Alcotest.test_case "pending guard" `Quick test_eco_pending_guard;
          Alcotest.test_case "pinmap edit" `Quick test_eco_pinmap_edit;
        ] );
    ]
