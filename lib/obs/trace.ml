let schema_version = "spr-trace-1"

type payload =
  | Run_start of { label : string; seed : int; replicas : int; n_cells : int; n_nets : int }
  | Span_begin of { name : string; depth : int; t : float }
  | Span_end of { name : string; depth : int; t : float; dt : float }
  | Temp of Report.dyn_row
  | Exchange of { round : int; from_replica : int; metric : float }
  | Metrics_dump of (string * Metrics.value) list
  | Replica_end of {
      status : string;
      g : int;
      d : int;
      delay_ns : float;
      best_cost : float;
    }
  | Run_end of {
      status : string;
      g : int;
      d : int;
      delay_ns : float;
      best_cost : float;
      wall_seconds : float;
    }

type event = { ev_replica : int; ev : payload }

open Json

let event_to_json { ev_replica; ev } =
  let base kind rest = Obj (("ev", String kind) :: ("replica", Int ev_replica) :: rest) in
  match ev with
  | Run_start { label; seed; replicas; n_cells; n_nets } ->
    Obj
      [
        ("ev", String "run_start");
        ("schema", String schema_version);
        ("replica", Int ev_replica);
        ("label", String label);
        ("seed", Int seed);
        ("replicas", Int replicas);
        ("n_cells", Int n_cells);
        ("n_nets", Int n_nets);
      ]
  | Span_begin { name; depth; t } ->
    base "span_begin" [ ("name", String name); ("depth", Int depth); ("t", Float t) ]
  | Span_end { name; depth; t; dt } ->
    base "span_end"
      [ ("name", String name); ("depth", Int depth); ("t", Float t); ("dt", Float dt) ]
  | Temp row -> base "temp" [ ("row", Report.dyn_row_to_json row) ]
  | Exchange { round; from_replica; metric } ->
    base "exchange"
      [ ("round", Int round); ("from", Int from_replica); ("metric", Float metric) ]
  | Metrics_dump ms -> base "metrics" [ ("metrics", Report.metrics_to_json ms) ]
  | Replica_end { status; g; d; delay_ns; best_cost } ->
    base "replica_end"
      [
        ("status", String status);
        ("g_unrouted", Int g);
        ("d_unrouted", Int d);
        ("delay_ns", Float delay_ns);
        ("best_cost", Float best_cost);
      ]
  | Run_end { status; g; d; delay_ns; best_cost; wall_seconds } ->
    base "run_end"
      [
        ("status", String status);
        ("g_unrouted", Int g);
        ("d_unrouted", Int d);
        ("delay_ns", Float delay_ns);
        ("best_cost", Float best_cost);
        ("wall_seconds", Float wall_seconds);
      ]

let event_of_json =
  decode ~what:"event" (fun j ->
      let replica = dint j "replica" in
      let ev =
        match dstr j "ev" with
        | "run_start" ->
          let schema = dstr j "schema" in
          if schema <> schema_version then fail "unknown trace schema %s" schema;
          Run_start
            {
              label = dstr j "label";
              seed = dint j "seed";
              replicas = dint j "replicas";
              n_cells = dint j "n_cells";
              n_nets = dint j "n_nets";
            }
        | "span_begin" ->
          Span_begin { name = dstr j "name"; depth = dint j "depth"; t = dfloat j "t" }
        | "span_end" ->
          Span_end
            { name = dstr j "name"; depth = dint j "depth"; t = dfloat j "t"; dt = dfloat j "dt" }
        | "temp" -> Temp (ok (Report.dyn_row_of_json (get j "row")))
        | "exchange" ->
          Exchange
            { round = dint j "round"; from_replica = dint j "from"; metric = dfloat j "metric" }
        | "metrics" -> Metrics_dump (ok (Report.metrics_of_json (get j "metrics")))
        | "replica_end" ->
          Replica_end
            {
              status = dstr j "status";
              g = dint j "g_unrouted";
              d = dint j "d_unrouted";
              delay_ns = dfloat j "delay_ns";
              best_cost = dfloat j "best_cost";
            }
        | "run_end" ->
          Run_end
            {
              status = dstr j "status";
              g = dint j "g_unrouted";
              d = dint j "d_unrouted";
              delay_ns = dfloat j "delay_ns";
              best_cost = dfloat j "best_cost";
              wall_seconds = dfloat j "wall_seconds";
            }
        | kind -> fail "unknown event kind %s" kind
      in
      { ev_replica = replica; ev })

let encode_line ev = to_string (event_to_json ev)

let decode_line line =
  match parse line with Error e -> Error e | Ok j -> event_of_json j

let mask_times { ev_replica; ev } =
  let ev =
    match ev with
    | Span_begin s -> Span_begin { s with t = 0.0 }
    | Span_end s -> Span_end { s with t = 0.0; dt = 0.0 }
    | Temp row ->
      Temp
        {
          row with
          Report.dr_phase_seconds =
            List.map (fun (k, _) -> (k, 0.0)) row.Report.dr_phase_seconds;
        }
    | Metrics_dump ms ->
      Metrics_dump
        (List.map
           (fun (name, v) ->
             match v with Metrics.Value _ -> (name, Metrics.Value 0.0) | v -> (name, v))
           ms)
    | Run_end r -> Run_end { r with wall_seconds = 0.0 }
    | (Run_start _ | Exchange _ | Replica_end _) as ev -> ev
  in
  { ev_replica; ev }

let to_file path events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (encode_line ev);
      Buffer.add_char buf '\n')
    events;
  Spr_util.Persist.atomic_write path (Buffer.contents buf)

let of_string text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | [ "" ] -> Ok (List.rev acc)  (* trailing newline *)
    | line :: rest -> (
      match decode_line line with
      | Ok ev -> go (lineno + 1) (ev :: acc) rest
      | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go 1 [] lines

let of_file path =
  match Spr_util.Persist.read_file path with Error e -> Error e | Ok text -> of_string text

let validate events =
  match events with
  | [] -> Error "empty trace"
  | first :: rest -> (
    match first.ev with
    | Run_start _ -> (
      match List.rev rest with
      | [] -> Error "trace has no run_end"
      | last :: middle_rev -> (
        match last.ev with
        | Run_end _ ->
          let bad =
            List.exists
              (fun e -> match e.ev with Run_start _ | Run_end _ -> true | _ -> false)
              middle_rev
          in
          if bad then Error "run_start/run_end in the middle of the trace" else Ok ()
        | _ -> Error "trace does not end with run_end"))
    | _ -> Error "trace does not start with run_start")
