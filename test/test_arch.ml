module Arch = Spr_arch.Arch
module Seg = Spr_arch.Segmentation
module I = Spr_util.Interval
module Gen = Spr_netlist.Generator

let qtest = QCheck_alcotest.to_alcotest

let schemes = [ Seg.Full; Seg.Uniform 1; Seg.Uniform 4; Seg.Uniform 7; Seg.Actel_like; Seg.Geometric ]

let scheme_gen = QCheck.make (QCheck.Gen.oneofl schemes) ~print:Seg.scheme_to_string

(* Exact partition: segments are ordered, contiguous, and cover
   [0, cols-1] without gaps or overlaps. *)
let is_partition segs cols =
  Array.length segs > 0
  && segs.(0).I.lo = 0
  && segs.(Array.length segs - 1).I.hi = cols - 1
  && begin
       let ok = ref true in
       for i = 1 to Array.length segs - 1 do
         if segs.(i).I.lo <> segs.(i - 1).I.hi + 1 then ok := false
       done;
       !ok
     end

let test_segmentation_partition =
  QCheck.Test.make ~name:"every track segmentation partitions the channel" ~count:400
    QCheck.(triple scheme_gen (int_range 2 90) (pair (int_range 0 12) (int_range 0 40)))
    (fun (scheme, cols, (channel, track)) ->
      is_partition (Seg.track scheme ~cols ~channel ~track) cols)

let test_segmentation_uniform_lengths () =
  let segs = Seg.track (Seg.Uniform 5) ~cols:23 ~channel:0 ~track:0 in
  Array.iteri
    (fun i s ->
      if i > 0 && i < Array.length segs - 1 then
        Alcotest.(check int) "interior segments have length 5" 5 (I.length s))
    segs

let test_segmentation_full () =
  let segs = Seg.track Seg.Full ~cols:31 ~channel:3 ~track:7 in
  Alcotest.(check int) "one segment" 1 (Array.length segs);
  Alcotest.(check int) "covers all" 31 (I.length segs.(0))

let test_segmentation_stagger () =
  (* Adjacent tracks of the uniform scheme should not share all cut
     positions. *)
  let cuts track =
    let segs = Seg.track (Seg.Uniform 6) ~cols:48 ~channel:0 ~track in
    Array.to_list (Array.map (fun s -> s.I.hi) segs)
  in
  Alcotest.(check bool) "tracks staggered" true (cuts 0 <> cuts 1)

let test_scheme_string_roundtrip () =
  List.iter
    (fun s ->
      match Seg.scheme_of_string (Seg.scheme_to_string s) with
      | Some s' -> Alcotest.(check string) "roundtrip" (Seg.scheme_to_string s) (Seg.scheme_to_string s')
      | None -> Alcotest.failf "did not parse %s" (Seg.scheme_to_string s))
    schemes;
  Alcotest.(check bool) "bad string" true (Seg.scheme_of_string "nonsense" = None);
  Alcotest.(check bool) "uniform:0 invalid" true (Seg.scheme_of_string "uniform:0" = None);
  Alcotest.(check bool) "uniform:x invalid" true (Seg.scheme_of_string "uniform:x" = None)

let test_average_segment_length () =
  let avg = Seg.average_segment_length (Seg.Uniform 4) ~cols:40 ~tracks:8 in
  Alcotest.(check bool) "avg near 4" true (avg > 3.0 && avg <= 4.5);
  let avg_full = Seg.average_segment_length Seg.Full ~cols:40 ~tracks:8 in
  Alcotest.(check (float 1e-9)) "full = cols" 40.0 avg_full

(* [Arch.create] stores the mean segment length once; the stored value
   must be the one the segmentation computes, bit for bit, including a
   fabric narrower than the scheme's segments. *)
let test_stored_average_segment_length () =
  List.iter
    (fun (hscheme, cols) ->
      List.iter
        (fun tracks ->
          let arch = Arch.create ~rows:3 ~cols ~tracks ~hscheme () in
          let expected = Seg.average_segment_length hscheme ~cols ~tracks in
          let name =
            Printf.sprintf "%s, %d cols, %d tracks" (Seg.scheme_to_string hscheme) cols tracks
          in
          Alcotest.(check bool) name true (Float.equal (Arch.avg_hseg_length arch) expected))
        [ 1; 38 ])
    [
      (Seg.Full, 40);
      (Seg.Uniform 4, 40);
      (Seg.Uniform 9, 5);
      (Seg.Actel_like, 40);
      (Seg.Actel_like, 3);
      (Seg.Geometric, 40);
      (Seg.Geometric, 10);
    ]

(* --- find_cover --- *)

let brute_force_cover segs (span : I.t) =
  (* Indices of the minimal consecutive run covering the span. *)
  let n = Array.length segs in
  let lo = ref None and hi = ref None in
  for i = 0 to n - 1 do
    if I.contains segs.(i) span.I.lo then lo := Some i;
    if I.contains segs.(i) span.I.hi then hi := Some i
  done;
  match !lo, !hi with Some a, Some b -> Some (a, b) | _, _ -> None

let test_find_cover_matches_brute_force =
  QCheck.Test.make ~name:"find_cover agrees with brute force" ~count:500
    QCheck.(
      triple scheme_gen (int_range 4 80) (pair (int_range (-5) 90) (int_range 0 30)))
    (fun (scheme, cols, (lo, len)) ->
      let segs = Seg.track scheme ~cols ~channel:1 ~track:2 in
      let span = I.make lo (lo + len) in
      Arch.find_cover segs span = brute_force_cover segs span)

let test_find_cover_examples () =
  let segs = [| I.make 0 3; I.make 4 7; I.make 8 11 |] in
  Alcotest.(check bool) "single segment" true (Arch.find_cover segs (I.make 1 3) = Some (0, 0));
  Alcotest.(check bool) "two segments" true (Arch.find_cover segs (I.make 2 6) = Some (0, 1));
  Alcotest.(check bool) "all segments" true (Arch.find_cover segs (I.make 0 11) = Some (0, 2));
  Alcotest.(check bool) "out of range" true (Arch.find_cover segs (I.make 5 14) = None);
  Alcotest.(check bool) "empty partition" true (Arch.find_cover [||] (I.make 0 1) = None)

(* --- Arch --- *)

let test_create_validation () =
  Alcotest.check_raises "bad dims" (Invalid_argument "Arch.create: non-positive dimensions")
    (fun () -> ignore (Arch.create ~rows:0 ~cols:5 ~tracks:3 ()))

let test_arch_shape () =
  let a = Arch.create ~rows:4 ~cols:12 ~tracks:6 () in
  Alcotest.(check int) "channels = rows+1" 5 a.Arch.n_channels;
  Alcotest.(check int) "slots" 48 (Arch.n_slots a);
  Alcotest.(check int) "perimeter of 4x12" ((2 * 12) + (2 * 2)) (Arch.n_perimeter_slots a);
  Alcotest.(check bool) "corner is perimeter" true (Arch.is_perimeter a ~row:0 ~col:0);
  Alcotest.(check bool) "interior is not" false (Arch.is_perimeter a ~row:2 ~col:5);
  (* every channel/track partitions; every column's vtracks partition the
     channel range *)
  for ch = 0 to a.Arch.n_channels - 1 do
    for tr = 0 to a.Arch.tracks - 1 do
      Alcotest.(check bool) "hseg partition" true
        (is_partition (Arch.hsegments a ~channel:ch ~track:tr) a.Arch.cols)
    done
  done;
  for col = 0 to a.Arch.cols - 1 do
    for vt = 0 to a.Arch.vtracks - 1 do
      let segs = Arch.vsegments a ~col ~vtrack:vt in
      Alcotest.(check bool) "vseg partition" true (is_partition segs a.Arch.n_channels);
      (* the first half of the vtracks (rounded up) span every channel,
         the rest are cut into spans of at most half the channels *)
      if vt < (a.Arch.vtracks + 1) / 2 then
        Alcotest.(check int) "full vtrack is one segment" 1 (Array.length segs)
      else
        Array.iter
          (fun seg -> Alcotest.(check bool) "half-span bound" true (I.length seg <= 2))
          segs
    done
  done

let test_size_for_fits =
  QCheck.Test.make ~name:"size_for produces a fabric that fits" ~count:25
    QCheck.(pair (int_range 40 400) small_int)
    (fun (n_cells, seed) ->
      let nl = Gen.generate (Gen.default ~n_cells) ~seed in
      let a = Arch.size_for nl in
      match Arch.check_fits a nl with Ok () -> true | Error _ -> false)

let test_check_fits_errors () =
  let nl = Gen.generate (Gen.default ~n_cells:100) ~seed:1 in
  let tiny = Arch.create ~rows:2 ~cols:4 ~tracks:4 () in
  (match Arch.check_fits tiny nl with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tiny fabric accepted");
  (* enough slots but not enough perimeter for pads: use a netlist with
     many pads on a tall narrow fabric *)
  let io_heavy =
    Gen.generate { (Gen.default ~n_cells:120) with Gen.pi_frac = 0.3; po_frac = 0.3 } ~seed:2
  in
  let narrow = Arch.create ~rows:60 ~cols:2 ~tracks:4 () in
  match Arch.check_fits narrow io_heavy with
  | Error msg -> Alcotest.(check bool) "perimeter error" true (String.length msg > 0)
  | Ok () -> ()

let test_vtracks_scale () =
  let small = Gen.generate (Gen.default ~n_cells:100) ~seed:3 in
  let big = Gen.generate (Gen.default ~n_cells:500) ~seed:3 in
  let a = Arch.size_for small and b = Arch.size_for big in
  Alcotest.(check bool) "vtracks grow with rows" true (b.Arch.vtracks >= a.Arch.vtracks)

let () =
  Alcotest.run "spr_arch"
    [
      ( "segmentation",
        [
          Alcotest.test_case "uniform lengths" `Quick test_segmentation_uniform_lengths;
          Alcotest.test_case "full scheme" `Quick test_segmentation_full;
          Alcotest.test_case "stagger" `Quick test_segmentation_stagger;
          Alcotest.test_case "scheme string roundtrip" `Quick test_scheme_string_roundtrip;
          Alcotest.test_case "average length" `Quick test_average_segment_length;
          Alcotest.test_case "arch stores the average length" `Quick
            test_stored_average_segment_length;
          qtest test_segmentation_partition;
        ] );
      ( "find_cover",
        [
          Alcotest.test_case "examples" `Quick test_find_cover_examples;
          qtest test_find_cover_matches_brute_force;
        ] );
      ( "arch",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "shape and partitions" `Quick test_arch_shape;
          Alcotest.test_case "check_fits errors" `Quick test_check_fits_errors;
          Alcotest.test_case "vtracks scale with rows" `Quick test_vtracks_scale;
          qtest test_size_for_fits;
        ] );
    ]
