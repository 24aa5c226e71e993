(* Unit tests for the spr_obs observability layer: canonical JSON
   printing/parsing, the metrics registry (including cross-registry
   absorb), span recording, and the shared dynamics renderer. *)

module Json = Spr_obs.Json
module Metrics = Spr_obs.Metrics
module Report = Spr_obs.Report
module Trace = Spr_obs.Trace
module Sink = Spr_obs.Sink
module Obs = Spr_obs.Obs

(* --- canonical JSON --- *)

let roundtrip s =
  match Json.parse s with
  | Error e -> Alcotest.failf "parse %S failed: %s" s e
  | Ok v -> Json.to_string v

let test_json_canonical () =
  Alcotest.(check string) "object order preserved" {|{"b":1,"a":2}|} (roundtrip {| {"b": 1, "a": 2} |});
  Alcotest.(check string) "nested" {|{"x":[1,2.5,"s",null,true]}|}
    (roundtrip {|{"x":[1, 2.5, "s", null, true]}|});
  Alcotest.(check string) "string escapes" "\"a\\n\\\"b\\\\\"" (roundtrip "\"a\\n\\\"b\\\\\"");
  Alcotest.(check string) "unicode escape becomes utf-8" "\"\xc3\xa9\"" (roundtrip {|"é"|});
  Alcotest.(check string) "empty containers" {|{"a":[],"b":{}}|} (roundtrip {|{"a":[],"b":{}}|})

let test_json_floats () =
  List.iter
    (fun f ->
      let s = Json.float_repr f in
      match float_of_string_opt s with
      | None -> Alcotest.failf "%h printed unparseable %S" f s
      | Some f2 ->
        Alcotest.(check bool)
          (Printf.sprintf "%h round-trips via %S" f s)
          true
          (Int64.bits_of_float f = Int64.bits_of_float f2))
    [ 0.; 1.; -1.; 0.1; 1e-300; 1.7976931348623157e308; 4.12; 128.955875; 3.0000000000000004 ];
  Alcotest.(check string) "infinity" "1e999" (Json.float_repr infinity);
  Alcotest.(check string) "neg infinity" "-1e999" (Json.float_repr neg_infinity);
  Alcotest.(check string) "nan is null" "null" (Json.float_repr nan);
  (* 1e999 overflows back to infinity on read; to_float maps Null to nan. *)
  (match Json.parse "1e999" with
  | Ok v -> Alcotest.(check bool) "1e999 reads as inf" true (Json.to_float v = Some infinity)
  | Error e -> Alcotest.failf "1e999 did not parse: %s" e);
  match Json.parse "null" with
  | Ok v ->
    Alcotest.(check bool) "null reads as nan" true
      (match Json.to_float v with Some f -> Float.is_nan f | None -> false)
  | Error e -> Alcotest.failf "null did not parse: %s" e

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}"; "nan" ]

(* --- metrics registry --- *)

let test_metrics_registry () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "moves" in
  let g = Metrics.gauge reg "seconds" in
  let h = Metrics.histogram reg ~bounds:[| 0.5 |] "acc" in
  Metrics.incr c;
  Metrics.add c 4;
  Metrics.gauge_add g 1.5;
  Metrics.observe h 0.25;
  Metrics.observe h 0.75;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  Alcotest.(check bool) "gauge" true (Metrics.gauge_value g = 1.5);
  Alcotest.(check int) "histogram total" 2 (Metrics.histogram_total h);
  (* get-or-create returns the same cell; conflicting kinds are refused *)
  Metrics.incr (Metrics.counter reg "moves");
  Alcotest.(check int) "same cell" 6 (Metrics.counter_value c);
  (match Metrics.counter reg "seconds" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind conflict not detected");
  (* snapshot preserves registration order *)
  Alcotest.(check (list string)) "registration order" [ "moves"; "seconds"; "acc" ]
    (List.map fst (Metrics.snapshot reg))

let test_metrics_absorb () =
  let mk () =
    let reg = Metrics.create () in
    let c = Metrics.counter reg "n" in
    let h = Metrics.histogram reg ~bounds:[| 1.0; 2.0 |] "hist" in
    (reg, c, h)
  in
  let a, ca, ha = mk () in
  let b, cb, hb = mk () in
  Metrics.add ca 3;
  Metrics.add cb 4;
  Metrics.observe ha 0.5;
  Metrics.observe hb 1.5;
  Metrics.observe hb 9.0;
  (* b also has a metric a has never seen *)
  Metrics.gauge_set (Metrics.gauge b "only_b") 2.25;
  Metrics.absorb a b;
  Alcotest.(check int) "counters sum" 7 (Metrics.counter_value ca);
  Alcotest.(check int) "histogram totals sum" 3 (Metrics.histogram_total ha);
  (match List.assoc_opt "only_b" (Metrics.snapshot a) with
  | Some (Metrics.Value v) -> Alcotest.(check bool) "foreign gauge adopted" true (v = 2.25)
  | _ -> Alcotest.fail "absorb dropped a metric unique to the source");
  match List.assoc_opt "hist" (Metrics.snapshot a) with
  | Some (Metrics.Buckets { counts; _ }) ->
    Alcotest.(check (list int)) "bucket-wise sum" [ 1; 1; 1 ] (Array.to_list counts)
  | _ -> Alcotest.fail "histogram missing from snapshot"

(* A racing fleet merges registries from replicas that died mid-run:
   the killed replica's dump covers only part of the temperature range
   and may lack metrics the survivors registered (and vice versa).
   Bucket-wise histogram addition must hold across such partial dumps,
   and absorbing an empty registry must be the identity. *)
let test_metrics_absorb_partial_dump () =
  let bounds = [| 0.25; 0.5; 0.75 |] in
  let survivor = Metrics.create () in
  let hs = Metrics.histogram survivor ~bounds "acceptance" in
  List.iter (Metrics.observe hs) [ 0.1; 0.3; 0.6; 0.9; 0.95 ];
  Metrics.add (Metrics.counter survivor "moves") 100;
  let killed = Metrics.create () in
  let hk = Metrics.histogram killed ~bounds "acceptance" in
  (* killed early: observed only the hot tail of the schedule *)
  List.iter (Metrics.observe hk) [ 0.8; 0.85 ];
  Metrics.add (Metrics.counter killed "kills") 1;
  let total = Metrics.create () in
  Metrics.absorb total survivor;
  Metrics.absorb total killed;
  Metrics.absorb total (Metrics.create ());
  (match List.assoc_opt "acceptance" (Metrics.snapshot total) with
  | Some (Metrics.Buckets { counts; _ }) ->
    Alcotest.(check (list int)) "bucket-wise sum across partial dumps" [ 1; 1; 1; 4 ]
      (Array.to_list counts)
  | _ -> Alcotest.fail "merged histogram missing");
  (match List.assoc_opt "moves" (Metrics.snapshot total) with
  | Some (Metrics.Count n) -> Alcotest.(check int) "survivor counter" 100 n
  | _ -> Alcotest.fail "survivor counter missing");
  match List.assoc_opt "kills" (Metrics.snapshot total) with
  | Some (Metrics.Count n) -> Alcotest.(check int) "killed replica's counter kept" 1 n
  | _ -> Alcotest.fail "killed replica's counter missing"

(* --- spans --- *)

let test_spans_nest_and_balance () =
  let sink = Sink.memory () in
  Obs.with_recording ~sink ~replica:3 (fun () ->
      Obs.span ~name:"outer" (fun () -> Obs.span ~name:"inner" (fun () -> ())));
  let events = Sink.events sink in
  let shape =
    List.map
      (fun e ->
        match e.Trace.ev with
        | Trace.Span_begin { name; depth; _ } -> Printf.sprintf "b:%s@%d" name depth
        | Trace.Span_end { name; depth; _ } -> Printf.sprintf "e:%s@%d" name depth
        | _ -> "?")
      events
  in
  Alcotest.(check (list string)) "nested spans balance"
    [ "b:outer@0"; "b:inner@1"; "e:inner@1"; "e:outer@0" ]
    shape;
  List.iter
    (fun e -> Alcotest.(check int) "events tagged with the replica" 3 e.Trace.ev_replica)
    events;
  (* outside with_recording, spans are free no-ops that still run f *)
  let hit = ref false in
  Obs.span ~name:"ignored" (fun () -> hit := true);
  Alcotest.(check bool) "span body ran without a sink" true !hit;
  Alcotest.(check bool) "nothing recorded without a sink" true (not (Obs.recording ()))

(* --- shared dynamics renderer --- *)

let row i =
  {
    Report.dr_temp_index = i;
    dr_temperature = 0.5 /. float_of_int (i + 1);
    dr_pct_cells = 90.0 -. float_of_int i;
    dr_pct_g_unrouted = 8.0;
    dr_pct_unrouted = 21.0;
    dr_acceptance = 0.8;
    dr_cost = 3.25;
    dr_delay_ns = 250.0;
    dr_phase_seconds = [ ("propose", 0.001); ("decide", 0.002) ];
  }

let render f rows =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf rows;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_render_dynamics () =
  let text = render Report.render_dynamics [ row 0; row 1 ] in
  let lines = String.split_on_char '\n' (String.trim text) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check bool) "header names the Figure-6 columns" true
    (match lines with h :: _ -> String.length h > 0 && String.trim h <> "" | [] -> false)

let test_phase_series_skips_partial_rows () =
  let names = [ "propose"; "decide" ] in
  let full = row 0 in
  let partial = { (row 1) with Report.dr_phase_seconds = [] } in
  let text = render (fun ppf -> Report.render_phase_series ppf ~phase_names:names) [ full; partial ] in
  let lines = String.split_on_char '\n' (String.trim text) in
  Alcotest.(check int) "header + only the complete row" 2 (List.length lines)

(* --- adversarial trace input ---

   A trace file arriving over the service socket or from a crashed
   run's disk can be truncated mid-line, interleaved with garbage,
   duplicated, or binary junk. Decoding and validation must answer
   every such input with Ok/Error — never an exception. *)

let valid_trace_text () =
  let ev p = { Trace.ev_replica = 0; ev = p } in
  let events =
    (ev (Trace.Run_start { label = "fuzz"; seed = 1; replicas = 1; n_cells = 4; n_nets = 3 })
    :: List.init 4 (fun i -> ev (Trace.Temp (row i))))
    @ [
        ev (Trace.Replica_end { status = "completed"; g = 0; d = 0; delay_ns = 1.5; best_cost = 2.0 });
        ev
          (Trace.Run_end
             { status = "completed"; g = 0; d = 0; delay_ns = 1.5; best_cost = 2.0; wall_seconds = 0.1 });
      ]
  in
  String.concat "\n" (List.map Trace.encode_line events) ^ "\n"

let corrupt_trace rng text =
  let lines () = String.split_on_char '\n' text in
  let splice_line insert =
    let ls = lines () in
    let at = Spr_util.Rng.int rng (List.length ls) in
    String.concat "\n" (List.concat (List.mapi (fun i l -> if i = at then [ insert; l ] else [ l ]) ls))
  in
  match Spr_util.Rng.int rng 6 with
  | 0 -> String.sub text 0 (Spr_util.Rng.int rng (String.length text))  (* truncation *)
  | 1 -> splice_line "this is not json"
  | 2 -> splice_line (String.init 16 (fun _ -> Char.chr (Spr_util.Rng.int rng 256)))
  | 3 ->
    (* duplicate the run_end row *)
    let ls = List.filter (fun l -> String.trim l <> "") (lines ()) in
    String.concat "\n" (ls @ [ List.nth ls (List.length ls - 1) ])
  | 4 ->
    (* drop a random line: structurally wrong, must be a clean Error *)
    let ls = lines () in
    let at = Spr_util.Rng.int rng (List.length ls) in
    String.concat "\n" (List.filteri (fun i _ -> i <> at) ls)
  | _ ->
    (* flip one byte *)
    let b = Bytes.of_string text in
    if Bytes.length b = 0 then text
    else begin
      let at = Spr_util.Rng.int rng (Bytes.length b) in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xff));
      Bytes.to_string b
    end

let test_trace_fuzz_total () =
  let rng = Spr_util.Rng.create 42 in
  let base = valid_trace_text () in
  (match Trace.of_string base with
  | Error e -> Alcotest.failf "valid trace rejected: %s" e
  | Ok events -> (
    match Trace.validate events with
    | Ok () -> ()
    | Error e -> Alcotest.failf "valid trace failed validation: %s" e));
  for i = 1 to 200 do
    (* stack up to three corruptions *)
    let text = ref base in
    for _ = 0 to Spr_util.Rng.int rng 3 do
      text := corrupt_trace rng !text
    done;
    match Trace.of_string !text with
    | Ok events -> (
      (* decode may survive (e.g. a duplicated row is valid JSON);
         validation must still answer structurally, without raising *)
      match Trace.validate events with Ok () | Error _ -> ())
    | Error msg ->
      if String.trim msg = "" then Alcotest.failf "case %d: empty diagnostic" i
  done

(* --- report loader ---

   [metrics_of_json] reads the metrics of every report.json and of every
   trace [metrics] row, so a histogram it accepts must be one a registry
   could have produced: non-empty, strictly increasing bounds and one
   more count than bounds. *)

let broken_histograms =
  [
    {|{"h":{"kind":"histogram","bounds":[0.1,0.2],"counts":[1]}}|};
    {|{"h":{"kind":"histogram","bounds":[0.5,0.1],"counts":[0,1,2]}}|};
  ]

let histogram_ok = function
  | Metrics.Buckets { bounds; counts } ->
    let n = Array.length bounds in
    n > 0
    && Array.length counts = n + 1
    && List.for_all (fun i -> bounds.(i) > bounds.(i - 1)) (List.init (n - 1) succ)
  | Metrics.Count _ | Metrics.Value _ -> true

let test_metrics_decoder_rejects_broken_histograms () =
  let decode text = Result.bind (Json.parse text) Report.metrics_of_json in
  (match decode {|{"h":{"kind":"histogram","bounds":[0.1,0.2],"counts":[1,2,3]}}|} with
  | Ok [ ("h", v) ] -> Alcotest.(check bool) "a registry's histogram decodes" true (histogram_ok v)
  | Ok _ -> Alcotest.fail "valid histogram decoded to something else"
  | Error e -> Alcotest.failf "valid histogram rejected: %s" e);
  List.iter
    (fun text ->
      match decode text with
      | Ok _ -> Alcotest.failf "broken histogram accepted: %s" text
      | Error e ->
        Alcotest.(check bool) ("the error names the metric: " ^ e) true
          (String.starts_with ~prefix:"metric h: " e))
    broken_histograms

let sample_report () =
  let reg = Metrics.create () in
  Metrics.add (Metrics.counter reg "pipeline.moves") 120;
  Metrics.gauge_set (Metrics.gauge reg "pipeline.propose_s") 0.25;
  Metrics.observe (Metrics.histogram reg ~bounds:[| 0.1; 0.5 |] "anneal.acceptance") 0.3;
  {
    Report.r_label = "fuzz";
    r_seed = 1;
    r_replicas = 1;
    r_status = "completed";
    r_fully_routed = true;
    r_g_unrouted = 0;
    r_d_unrouted = 0;
    r_critical_delay_ns = 12.5;
    r_best_cost = 12.5;
    r_initial_cost = 3.0;
    r_final_cost = 1.0;
    r_moves = 120;
    r_temperatures = 2;
    r_exchange_rounds = 0;
    r_cpu_seconds = 0.5;
    r_wall_seconds = 0.5;
    r_pipeline =
      Some
        {
          Report.pl_moves = 120;
          pl_null_moves = 2;
          pl_accepts = 60;
          pl_rejects = 58;
          pl_ripped_nets = 300;
          pl_retimed_nets = 40;
          pl_total_seconds = 0.4;
          pl_phases = [ { Report.ph_name = "propose"; ph_seconds = 0.25; ph_calls = 120 } ];
          pl_global_attempts = 10;
          pl_global_routed = 9;
          pl_detail_attempts = 20;
          pl_detail_routed = 18;
        };
    r_route =
      Some
        {
          Report.rt_routed_nets = 30;
          rt_unrouted_nets = 0;
          rt_h_wirelength = 400;
          rt_v_wirelength = 50;
          rt_h_antifuses = 20;
          rt_v_antifuses = 5;
          rt_x_antifuses = 90;
          rt_vertical_used = 12;
          rt_vertical_total = 64;
          rt_channels =
            [
              {
                Report.ch_index = 0;
                ch_used_len = 40;
                ch_total_len = 96;
                ch_used_segments = 7;
                ch_total_segments = 24;
              };
            ];
        };
    r_dynamics = [ row 0; row 1 ];
    r_metrics = Metrics.snapshot reg;
  }

(* The loader's property: on any input it returns [Error] or a report
   whose histograms keep their invariant, and it never raises. *)
let report_loads_as_error_or_valid text =
  match Result.bind (Json.parse text) Report.of_json with
  | Error _ -> true
  | Ok r -> List.for_all (fun (_, v) -> histogram_ok v) r.Report.r_metrics
  | exception e -> Alcotest.failf "Report.of_json raised %s on:\n%s" (Printexc.to_string e) text

let test_report_mutations () =
  let json = Report.to_json (sample_report ()) in
  let text = Json.to_string json in
  Alcotest.(check bool) "the unmutated report loads" true
    (match Result.bind (Json.parse text) Report.of_json with Ok _ -> true | Error _ -> false);
  List.iter
    (fun mutant ->
      if not (report_loads_as_error_or_valid mutant) then
        Alcotest.failf "mutated report loaded with a broken histogram:\n%s" mutant)
    (Mutate.all ~values:Mutate.json_values text);
  (* Random mutation never produces the broken histograms, so they are
     fixed cases: the report carrying either is refused. *)
  List.iter
    (fun metrics ->
      let with_metrics =
        match (json, Json.parse metrics) with
        | Json.Obj fields, Ok m ->
          Json.Obj (List.map (fun (k, v) -> (k, if k = "metrics" then m else v)) fields)
        | _ -> Alcotest.fail "report or metrics text is not an object"
      in
      match Report.of_json with_metrics with
      | Ok _ -> Alcotest.failf "report with broken histogram accepted: %s" metrics
      | Error _ -> ())
    broken_histograms

let () =
  Alcotest.run "spr_obs"
    [
      ( "json",
        [
          Alcotest.test_case "canonical print/parse round trip" `Quick test_json_canonical;
          Alcotest.test_case "float repr shortest round-trip" `Quick test_json_floats;
          Alcotest.test_case "malformed inputs rejected" `Quick test_json_parse_errors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry get-or-create and snapshot" `Quick test_metrics_registry;
          Alcotest.test_case "absorb merges by name" `Quick test_metrics_absorb;
          Alcotest.test_case "absorb merges a killed replica's partial dump" `Quick
            test_metrics_absorb_partial_dump;
          Alcotest.test_case "decoder rejects histograms a registry cannot produce" `Quick
            test_metrics_decoder_rejects_broken_histograms;
        ] );
      ("spans", [ Alcotest.test_case "nesting, tagging, no-op without sink" `Quick test_spans_nest_and_balance ]);
      ( "trace",
        [
          Alcotest.test_case "adversarial input decodes totally" `Quick test_trace_fuzz_total;
        ] );
      ( "report",
        [
          Alcotest.test_case "truncations, flips and value splices load as Error or valid" `Quick
            test_report_mutations;
        ] );
      ( "render",
        [
          Alcotest.test_case "dynamics table via the one renderer" `Quick test_render_dynamics;
          Alcotest.test_case "phase series skips partial rows" `Quick
            test_phase_series_skips_partial_rows;
        ] );
    ]
