module Nl = Spr_netlist.Netlist
module Ck = Spr_netlist.Cell_kind
module Pm = Spr_netlist.Pinmap
module Lv = Spr_netlist.Levelize
module Gen = Spr_netlist.Generator
module Blif = Spr_netlist.Blif
module Circuits = Spr_netlist.Circuits

let qtest = QCheck_alcotest.to_alcotest

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
  n = 0 || loop 0

(* --- Cell_kind --- *)

let test_kind_predicates () =
  Alcotest.(check bool) "input is io" true (Ck.is_io Ck.Input);
  Alcotest.(check bool) "comb not io" false (Ck.is_io Ck.Comb);
  Alcotest.(check bool) "seq source" true (Ck.is_timing_source Ck.Seq);
  Alcotest.(check bool) "seq sink" true (Ck.is_timing_sink Ck.Seq);
  Alcotest.(check bool) "input source" true (Ck.is_timing_source Ck.Input);
  Alcotest.(check bool) "output sink" true (Ck.is_timing_sink Ck.Output);
  Alcotest.(check bool) "output has no output pin" false (Ck.has_output Ck.Output);
  Alcotest.(check bool) "comb has output" true (Ck.has_output Ck.Comb);
  List.iter
    (fun k -> Alcotest.(check bool) "equal refl" true (Ck.equal k k))
    [ Ck.Input; Ck.Output; Ck.Comb; Ck.Seq ];
  Alcotest.(check bool) "not equal" false (Ck.equal Ck.Input Ck.Seq)

(* --- Pinmap --- *)

let test_palette_sizes () =
  Alcotest.(check int) "0 pins: one empty map" 1 (Array.length (Pm.palette ~n_pins:0));
  Alcotest.(check int) "1 pin: two maps" 2 (Array.length (Pm.palette ~n_pins:1));
  Alcotest.(check int) "3 pins: four maps" 4 (Array.length (Pm.palette ~n_pins:3))

let test_palette_distinct =
  QCheck.Test.make ~name:"palette entries are pairwise distinct" ~count:20
    QCheck.(int_range 0 8)
    (fun n_pins ->
      let palette = Pm.palette ~n_pins in
      let ok = ref true in
      Array.iteri
        (fun i a ->
          Array.iteri (fun k b -> if i < k && Pm.equal a b then ok := false) palette)
        palette;
      !ok && Array.for_all (fun pm -> Array.length pm = n_pins) palette)

let test_palette_default_bottom () =
  let palette = Pm.palette ~n_pins:4 in
  Alcotest.(check bool) "entry 0 all bottom" true
    (Array.for_all (fun s -> Pm.side_equal s Pm.Bottom) palette.(0))

(* --- Builder --- *)

let build_tiny () =
  (* pi -> g1 -> po, plus g1 also feeding g2 -> ff -> (feeds g2 back) *)
  let b = Nl.Builder.create () in
  let pi = Nl.Builder.add_cell b ~name:"pi" ~kind:Ck.Input ~n_inputs:0 in
  let g1 = Nl.Builder.add_cell b ~name:"g1" ~kind:Ck.Comb ~n_inputs:1 in
  let g2 = Nl.Builder.add_cell b ~name:"g2" ~kind:Ck.Comb ~n_inputs:2 in
  let ff = Nl.Builder.add_cell b ~name:"ff" ~kind:Ck.Seq ~n_inputs:1 in
  let po = Nl.Builder.add_cell b ~name:"po" ~kind:Ck.Output ~n_inputs:1 in
  let n_pi = Nl.Builder.add_net b ~name:"n_pi" ~driver:pi in
  let n_g1 = Nl.Builder.add_net b ~name:"n_g1" ~driver:g1 in
  let n_g2 = Nl.Builder.add_net b ~name:"n_g2" ~driver:g2 in
  let n_ff = Nl.Builder.add_net b ~name:"n_ff" ~driver:ff in
  Nl.Builder.add_sink b ~net:n_pi ~cell:g1 ~pin:0;
  Nl.Builder.add_sink b ~net:n_g1 ~cell:g2 ~pin:0;
  Nl.Builder.add_sink b ~net:n_g1 ~cell:po ~pin:0;
  Nl.Builder.add_sink b ~net:n_g2 ~cell:ff ~pin:0;
  Nl.Builder.add_sink b ~net:n_ff ~cell:g2 ~pin:1;
  (Nl.Builder.finish_exn b, pi, g1, g2, ff, po)

let test_builder_valid () =
  let nl, pi, g1, g2, ff, po = build_tiny () in
  Alcotest.(check int) "cells" 5 (Nl.n_cells nl);
  Alcotest.(check int) "nets" 4 (Nl.n_nets nl);
  Alcotest.(check (option int)) "pi drives net 0" (Some 0) (Nl.out_net nl pi);
  Alcotest.(check (option int)) "po drives nothing" None (Nl.out_net nl po);
  Alcotest.(check int) "g2 pin1 fed by ff net" 3 (Nl.in_net nl g2 1);
  Alcotest.(check (list int)) "nets of g2" [ 1; 2; 3 ] (Nl.nets_of_cell nl g2);
  Alcotest.(check (list int)) "fanout of g1" (List.sort compare [ g2; po ]) (Nl.fanout_cells nl g1);
  Alcotest.(check int) "g1 pins (1 in + out)" 2 (Nl.n_pins nl g1);
  Alcotest.(check int) "po pins (1 in)" 1 (Nl.n_pins nl po);
  let counts = Nl.counts nl in
  Alcotest.(check int) "one input" 1 counts.Nl.n_input;
  Alcotest.(check int) "one seq" 1 counts.Nl.n_seq;
  Alcotest.(check int) "total pins" (1 + 2 + 3 + 2 + 1) counts.Nl.total_pins;
  ignore ff

let expect_error b msg_part =
  match Nl.Builder.finish b with
  | Ok _ -> Alcotest.failf "expected error mentioning %S" msg_part
  | Error msg ->
    if not (contains_sub ~sub:msg_part msg) then
      Alcotest.failf "error %S does not mention %S" msg msg_part

let test_builder_unconnected_pin () =
  let b = Nl.Builder.create () in
  let pi = Nl.Builder.add_cell b ~name:"pi" ~kind:Ck.Input ~n_inputs:0 in
  let _g = Nl.Builder.add_cell b ~name:"g" ~kind:Ck.Comb ~n_inputs:1 in
  let _net = Nl.Builder.add_net b ~name:"n" ~driver:pi in
  expect_error b "unconnected"

let test_builder_double_driver () =
  let b = Nl.Builder.create () in
  let pi = Nl.Builder.add_cell b ~name:"pi" ~kind:Ck.Input ~n_inputs:0 in
  let _n1 = Nl.Builder.add_net b ~name:"n1" ~driver:pi in
  let _n2 = Nl.Builder.add_net b ~name:"n2" ~driver:pi in
  expect_error b "more than one net"

let test_builder_output_driving () =
  let b = Nl.Builder.create () in
  let pi = Nl.Builder.add_cell b ~name:"pi" ~kind:Ck.Input ~n_inputs:0 in
  let po = Nl.Builder.add_cell b ~name:"po" ~kind:Ck.Output ~n_inputs:1 in
  let n = Nl.Builder.add_net b ~name:"n" ~driver:pi in
  Nl.Builder.add_sink b ~net:n ~cell:po ~pin:0;
  let _bad = Nl.Builder.add_net b ~name:"bad" ~driver:po in
  expect_error b "has no output"

let test_builder_pin_connected_twice () =
  let b = Nl.Builder.create () in
  let pi = Nl.Builder.add_cell b ~name:"pi" ~kind:Ck.Input ~n_inputs:0 in
  let po = Nl.Builder.add_cell b ~name:"po" ~kind:Ck.Output ~n_inputs:1 in
  let n = Nl.Builder.add_net b ~name:"n" ~driver:pi in
  Nl.Builder.add_sink b ~net:n ~cell:po ~pin:0;
  Nl.Builder.add_sink b ~net:n ~cell:po ~pin:0;
  expect_error b "connected twice"

let test_builder_bad_pin_index () =
  let b = Nl.Builder.create () in
  let pi = Nl.Builder.add_cell b ~name:"pi" ~kind:Ck.Input ~n_inputs:0 in
  let po = Nl.Builder.add_cell b ~name:"po" ~kind:Ck.Output ~n_inputs:1 in
  let n = Nl.Builder.add_net b ~name:"n" ~driver:pi in
  Nl.Builder.add_sink b ~net:n ~cell:po ~pin:0;
  Nl.Builder.add_sink b ~net:n ~cell:po ~pin:7;
  expect_error b "out of range"

(* A chain pi -> g_1 -> ... -> g_k -> po, with net i driven by cell i.
   [order] lists the net ids in the order their sinks are added; every
   net but the last also feeds the output pad's pin i, so a net's sinks
   arrive in two separate calls. *)
let build_chain ~k order =
  let b = Nl.Builder.create () in
  let pi = Nl.Builder.add_cell b ~name:"pi" ~kind:Ck.Input ~n_inputs:0 in
  let gates =
    Array.init k (fun i ->
        Nl.Builder.add_cell b ~name:(Printf.sprintf "g%d" i) ~kind:Ck.Comb ~n_inputs:1)
  in
  let po = Nl.Builder.add_cell b ~name:"po" ~kind:Ck.Output ~n_inputs:k in
  let nets =
    Array.init (k + 1) (fun i ->
        let driver = if i = 0 then pi else gates.(i - 1) in
        Nl.Builder.add_net b ~name:(Printf.sprintf "n%d" i) ~driver)
  in
  List.iter
    (fun i ->
      if i < k then Nl.Builder.add_sink b ~net:nets.(i) ~cell:gates.(i) ~pin:0;
      if i > 0 then Nl.Builder.add_sink b ~net:nets.(i) ~cell:po ~pin:(i - 1))
    order;
  Nl.Builder.finish_exn b

let test_builder_sink_order () =
  let k = 200 in
  let in_order = List.init (k + 1) Fun.id in
  let reference = build_chain ~k in_order in
  Alcotest.(check int) "every net kept" (k + 1) (Nl.n_nets reference);
  Array.iteri
    (fun i n ->
      Alcotest.(check int) "ids in add order" i n.Nl.net_id;
      Alcotest.(check string) "names in add order" (Printf.sprintf "n%d" i) n.Nl.net_name)
    (Nl.nets reference);
  Alcotest.(check (list (pair int int))) "sinks in call order"
    [ (2, 0); (k + 1, 0) ]
    (Array.to_list (Nl.net reference 1).Nl.sinks);
  let evens, odds = List.partition (fun i -> i mod 2 = 0) in_order in
  List.iter
    (fun (what, order) ->
      Alcotest.(check bool) what true (Nl.nets (build_chain ~k order) = Nl.nets reference))
    [ ("reverse net order", List.rev in_order); ("interleaved net order", odds @ evens) ]

let test_builder_bad_net_id () =
  let b = Nl.Builder.create () in
  let pi = Nl.Builder.add_cell b ~name:"pi" ~kind:Ck.Input ~n_inputs:0 in
  let po = Nl.Builder.add_cell b ~name:"po" ~kind:Ck.Output ~n_inputs:1 in
  let n = Nl.Builder.add_net b ~name:"n" ~driver:pi in
  List.iter
    (fun net ->
      Alcotest.check_raises (Printf.sprintf "net %d" net)
        (Invalid_argument "Netlist.Builder.add_sink: bad net id") (fun () ->
          Nl.Builder.add_sink b ~net ~cell:po ~pin:0))
    [ -1; n + 1 ]

(* --- Levelize --- *)

let test_levelize_tiny () =
  let nl, pi, g1, g2, ff, po = build_tiny () in
  let lv = Lv.run_exn nl in
  Alcotest.(check int) "pi level 0" 0 lv.Lv.levels.(pi);
  Alcotest.(check int) "ff level 0 (source side)" 0 lv.Lv.levels.(ff);
  Alcotest.(check int) "g1 level 1" 1 lv.Lv.levels.(g1);
  Alcotest.(check int) "g2 level 2 (max of g1,ff)" 2 lv.Lv.levels.(g2);
  Alcotest.(check int) "po level 2" 2 lv.Lv.levels.(po);
  Alcotest.(check int) "max level" 2 lv.Lv.max_level;
  (* order is non-decreasing in level *)
  let last = ref (-1) in
  Array.iter
    (fun c ->
      Alcotest.(check bool) "order sorted by level" true (lv.Lv.levels.(c) >= !last);
      last := lv.Lv.levels.(c))
    lv.Lv.order

let test_levelize_cycle_detected () =
  let b = Nl.Builder.create () in
  let a = Nl.Builder.add_cell b ~name:"a" ~kind:Ck.Comb ~n_inputs:1 in
  let c = Nl.Builder.add_cell b ~name:"c" ~kind:Ck.Comb ~n_inputs:1 in
  let na = Nl.Builder.add_net b ~name:"na" ~driver:a in
  let nc = Nl.Builder.add_net b ~name:"nc" ~driver:c in
  Nl.Builder.add_sink b ~net:na ~cell:c ~pin:0;
  Nl.Builder.add_sink b ~net:nc ~cell:a ~pin:0;
  let nl = Nl.Builder.finish_exn b in
  match Lv.run nl with
  | Ok _ -> Alcotest.fail "cycle not detected"
  | Error msg -> Alcotest.(check bool) "mentions cycle" true (String.length msg > 0)

let test_levelize_ff_breaks_cycle () =
  (* a -> ff -> a is fine: the flip-flop breaks the loop. *)
  let b = Nl.Builder.create () in
  let a = Nl.Builder.add_cell b ~name:"a" ~kind:Ck.Comb ~n_inputs:1 in
  let ff = Nl.Builder.add_cell b ~name:"ff" ~kind:Ck.Seq ~n_inputs:1 in
  let na = Nl.Builder.add_net b ~name:"na" ~driver:a in
  let nf = Nl.Builder.add_net b ~name:"nf" ~driver:ff in
  Nl.Builder.add_sink b ~net:na ~cell:ff ~pin:0;
  Nl.Builder.add_sink b ~net:nf ~cell:a ~pin:0;
  let nl = Nl.Builder.finish_exn b in
  let lv = Lv.run_exn nl in
  Alcotest.(check int) "a level 1" 1 lv.Lv.levels.(a);
  Alcotest.(check int) "ff level 0" 0 lv.Lv.levels.(ff)

let level_property nl =
  let lv = Lv.run_exn nl in
  let ok = ref true in
  for c = 0 to Nl.n_cells nl - 1 do
    let cell = Nl.cell nl c in
    let is_source = Ck.is_timing_source cell.Nl.kind || cell.Nl.n_inputs = 0 in
    if is_source then begin
      if lv.Lv.levels.(c) <> 0 then ok := false
    end
    else begin
      let expect =
        1
        + Array.fold_left
            (fun acc net ->
              let d = (Nl.net nl net).Nl.driver in
              let dc = Nl.cell nl d in
              let d_src = Ck.is_timing_source dc.Nl.kind || dc.Nl.n_inputs = 0 in
              max acc (if d_src then 0 else lv.Lv.levels.(d)))
            0 (Nl.in_nets nl c)
      in
      if lv.Lv.levels.(c) <> expect then ok := false
    end
  done;
  !ok

(* --- Generator --- *)

let test_generator_deterministic () =
  let params = Gen.default ~n_cells:120 in
  let a = Gen.generate params ~seed:99 in
  let b = Gen.generate params ~seed:99 in
  Alcotest.(check int) "same cells" (Nl.n_cells a) (Nl.n_cells b);
  Alcotest.(check int) "same nets" (Nl.n_nets a) (Nl.n_nets b);
  let ca = Nl.counts a and cb = Nl.counts b in
  Alcotest.(check int) "same pins" ca.Nl.total_pins cb.Nl.total_pins

let test_generator_seed_changes () =
  let params = Gen.default ~n_cells:120 in
  let a = Gen.generate params ~seed:1 in
  let b = Gen.generate params ~seed:2 in
  Alcotest.(check bool) "different connectivity" true
    ((Nl.counts a).Nl.total_pins <> (Nl.counts b).Nl.total_pins)

let test_generator_counts =
  QCheck.Test.make ~name:"generator: exact cell count, valid structure" ~count:30
    QCheck.(pair (int_range 40 400) small_int)
    (fun (n_cells, seed) ->
      let params = Gen.default ~n_cells in
      let nl = Gen.generate params ~seed in
      Nl.n_cells nl = n_cells
      &&
      (* fanin bound respected for comb cells *)
      Array.for_all
        (fun c ->
          match c.Nl.kind with
          | Ck.Comb -> c.Nl.n_inputs >= 1 && c.Nl.n_inputs <= params.Gen.max_fanin
          | Ck.Seq -> c.Nl.n_inputs = 1
          | Ck.Input -> c.Nl.n_inputs = 0
          | Ck.Output -> c.Nl.n_inputs = 1)
        (Nl.cells nl))

let test_generator_acyclic =
  QCheck.Test.make ~name:"generator output levelizes (no comb cycles)" ~count:30
    QCheck.(pair (int_range 40 300) small_int)
    (fun (n_cells, seed) ->
      let nl = Gen.generate (Gen.default ~n_cells) ~seed in
      match Lv.run nl with Ok _ -> true | Error _ -> false)

let test_generator_levels_property =
  QCheck.Test.make ~name:"levelization recurrence holds on generated circuits" ~count:20
    QCheck.(pair (int_range 40 250) small_int)
    (fun (n_cells, seed) -> level_property (Gen.generate (Gen.default ~n_cells) ~seed))

let test_generator_too_small () =
  Alcotest.check_raises "n_cells too small"
    (Invalid_argument "Generator.generate: n_cells too small for the I/O fractions")
    (fun () -> ignore (Gen.generate (Gen.default ~n_cells:3) ~seed:1))

(* --- Circuits --- *)

let test_circuits_presets () =
  Alcotest.(check int) "six presets" 6 (List.length Circuits.all);
  List.iter
    (fun spec ->
      let nl = Circuits.make spec in
      Alcotest.(check int)
        (spec.Circuits.spec_name ^ " cell count")
        spec.Circuits.spec_cells (Nl.n_cells nl))
    Circuits.all;
  Alcotest.(check bool) "find s1" true (Circuits.find "s1" <> None);
  Alcotest.(check bool) "find unknown" true (Circuits.find "nope" = None);
  Alcotest.check_raises "make_by_name unknown" Not_found (fun () ->
      ignore (Circuits.make_by_name "nope"))

(* --- Blif --- *)

let blif_example =
  {|# a small example
.model tiny
.inputs a b
.outputs f
.names a b w
11 1
.latch w q 0
.names q b f
10 1
.end
|}

let test_blif_parse () =
  match Blif.parse_string blif_example with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok nl ->
    let counts = Nl.counts nl in
    Alcotest.(check int) "2 inputs" 2 counts.Nl.n_input;
    Alcotest.(check int) "1 output pad" 1 counts.Nl.n_output;
    Alcotest.(check int) "2 comb (.names)" 2 counts.Nl.n_comb;
    Alcotest.(check int) "1 latch" 1 counts.Nl.n_seq;
    (match Lv.run nl with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "levelize failed: %s" e)

let test_blif_errors () =
  (match Blif.parse_string ".model m\n.inputs a\n.names a a\n1 1\n.end\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double driver accepted");
  (match Blif.parse_string ".model m\n.inputs a\n.outputs f\n.names a ghost f\n11 1\n.end\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undriven signal accepted");
  (match Blif.parse_string ".model m\n.gate x\n.end\n" with
  | Error e ->
    Alcotest.(check bool) "mentions unsupported" true (contains_sub ~sub:"unsupported" e)
  | Ok _ -> Alcotest.fail "unsupported construct accepted");
  match Blif.parse_string ".model m\n.latch x\n.end\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed latch accepted"

let signature nl =
  (* Structure signature independent of cell/net ids: per cell name its
     kind and sorted fanin signal names. *)
  let sig_of_cell c =
    let fanins =
      Array.to_list
        (Array.map (fun net -> (Nl.net nl net).Nl.net_name) (Nl.in_nets nl c.Nl.id))
    in
    (c.Nl.cell_name, Ck.to_string c.Nl.kind, List.sort compare fanins)
  in
  List.sort compare (Array.to_list (Array.map sig_of_cell (Nl.cells nl)))

let test_blif_roundtrip () =
  match Blif.parse_string blif_example with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok nl -> (
    let text = Blif.to_string nl in
    match Blif.parse_string text with
    | Error e -> Alcotest.failf "reparse failed: %s" e
    | Ok nl2 ->
      Alcotest.(check int) "cells preserved" (Nl.n_cells nl) (Nl.n_cells nl2);
      Alcotest.(check bool) "structure preserved" true (signature nl = signature nl2))

let test_blif_roundtrip_generated =
  QCheck.Test.make ~name:"blif round-trips generated circuits" ~count:10
    QCheck.(pair (int_range 30 120) small_int)
    (fun (n_cells, seed) ->
      let nl = Gen.generate (Gen.default ~n_cells) ~seed in
      match Blif.parse_string (Blif.to_string nl) with
      | Error _ -> false
      | Ok nl2 -> Nl.n_cells nl = Nl.n_cells nl2 && Nl.n_nets nl = Nl.n_nets nl2)

(* The BLIF loader's property: on any input it returns [Error] or a
   netlist that levelizes (or reports its cycle), and it never raises. *)
let blif_loads_as_error_or_valid text =
  match Result.bind (Blif.parse_string text) (fun nl -> Result.map ignore (Lv.run nl)) with
  | Ok () | Error _ -> ()
  | exception e -> Alcotest.failf "BLIF loader raised %s on:\n%s" (Printexc.to_string e) text

let test_blif_mutations () =
  let generated = Blif.to_string (Gen.generate (Gen.default ~n_cells:16) ~seed:3) in
  List.iter
    (fun text ->
      List.iter blif_loads_as_error_or_valid (Mutate.all ~values:Mutate.json_values text))
    [ blif_example; generated ]

(* --- Netlist_stats --- *)

let test_stats_tiny () =
  let nl, _, _, _, _, _ = build_tiny () in
  let stats = Spr_netlist.Netlist_stats.collect_exn nl in
  let open Spr_netlist.Netlist_stats in
  Alcotest.(check int) "cells" 5 stats.n_cells;
  Alcotest.(check int) "nets" 4 stats.n_nets;
  Alcotest.(check int) "depth" 2 stats.logic_depth;
  (* fanins: g1=1, g2=2, ff=1, po=1 -> avg 1.25 over 4 cells *)
  Alcotest.(check (float 1e-9)) "avg fanin" 1.25 stats.avg_fanin;
  (* fanouts: n_pi=1, n_g1=2, n_g2=1, n_ff=1 *)
  Alcotest.(check int) "max fanout" 2 stats.max_fanout;
  Alcotest.(check (float 1e-9)) "avg fanout" 1.25 stats.avg_fanout;
  (* depth histogram sums to the cell count *)
  Alcotest.(check int) "histogram total" 5
    (List.fold_left (fun acc (_, n) -> acc + n) 0 stats.depth_histogram)

let test_stats_presets_look_mapped () =
  (* the substitution argument: presets have MCNC-mapped-like structure *)
  List.iter
    (fun spec ->
      let nl = Circuits.make spec in
      let stats = Spr_netlist.Netlist_stats.collect_exn nl in
      let open Spr_netlist.Netlist_stats in
      Alcotest.(check bool)
        (spec.Circuits.spec_name ^ " avg fanin in [1.8, 3.5]")
        true
        (stats.avg_fanin >= 1.8 && stats.avg_fanin <= 3.5);
      Alcotest.(check bool)
        (spec.Circuits.spec_name ^ " depth in [8, 60]")
        true
        (stats.logic_depth >= 8 && stats.logic_depth <= 60);
      Alcotest.(check bool)
        (spec.Circuits.spec_name ^ " avg net terminals in [2, 6]")
        true
        (stats.avg_net_terminals >= 2.0 && stats.avg_net_terminals <= 6.0))
    Circuits.all

let test_stats_cycle_error () =
  let b = Nl.Builder.create () in
  let a = Nl.Builder.add_cell b ~name:"a" ~kind:Ck.Comb ~n_inputs:1 in
  let c = Nl.Builder.add_cell b ~name:"c" ~kind:Ck.Comb ~n_inputs:1 in
  let na = Nl.Builder.add_net b ~name:"na" ~driver:a in
  let nc = Nl.Builder.add_net b ~name:"nc" ~driver:c in
  Nl.Builder.add_sink b ~net:na ~cell:c ~pin:0;
  Nl.Builder.add_sink b ~net:nc ~cell:a ~pin:0;
  let nl = Nl.Builder.finish_exn b in
  match Spr_netlist.Netlist_stats.collect nl with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cycle accepted"

let () =
  Alcotest.run "spr_netlist"
    [
      ("cell_kind", [ Alcotest.test_case "predicates" `Quick test_kind_predicates ]);
      ( "pinmap",
        [
          Alcotest.test_case "palette sizes" `Quick test_palette_sizes;
          Alcotest.test_case "default all-bottom" `Quick test_palette_default_bottom;
          qtest test_palette_distinct;
        ] );
      ( "builder",
        [
          Alcotest.test_case "valid netlist" `Quick test_builder_valid;
          Alcotest.test_case "unconnected pin" `Quick test_builder_unconnected_pin;
          Alcotest.test_case "double driver" `Quick test_builder_double_driver;
          Alcotest.test_case "output driving" `Quick test_builder_output_driving;
          Alcotest.test_case "pin connected twice" `Quick test_builder_pin_connected_twice;
          Alcotest.test_case "bad pin index" `Quick test_builder_bad_pin_index;
          Alcotest.test_case "sinks keep call order in any net order" `Quick
            test_builder_sink_order;
          Alcotest.test_case "bad net id" `Quick test_builder_bad_net_id;
        ] );
      ( "levelize",
        [
          Alcotest.test_case "tiny netlist levels" `Quick test_levelize_tiny;
          Alcotest.test_case "cycle detected" `Quick test_levelize_cycle_detected;
          Alcotest.test_case "ff breaks cycle" `Quick test_levelize_ff_breaks_cycle;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "seed changes output" `Quick test_generator_seed_changes;
          Alcotest.test_case "too small rejected" `Quick test_generator_too_small;
          qtest test_generator_counts;
          qtest test_generator_acyclic;
          qtest test_generator_levels_property;
        ] );
      ("circuits", [ Alcotest.test_case "presets" `Quick test_circuits_presets ]);
      ( "stats",
        [
          Alcotest.test_case "tiny netlist" `Quick test_stats_tiny;
          Alcotest.test_case "presets look mapped" `Quick test_stats_presets_look_mapped;
          Alcotest.test_case "cycle error" `Quick test_stats_cycle_error;
        ] );
      ( "blif",
        [
          Alcotest.test_case "parse" `Quick test_blif_parse;
          Alcotest.test_case "errors" `Quick test_blif_errors;
          Alcotest.test_case "roundtrip" `Quick test_blif_roundtrip;
          qtest test_blif_roundtrip_generated;
          Alcotest.test_case "truncations, flips and value splices load as Error or valid" `Quick
            test_blif_mutations;
        ] );
    ]
