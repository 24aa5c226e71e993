module J = Spr_obs.Json

type spec = {
  label : string;
  circuit : string option;
  blif : string option;
  tracks : int;
  scheme : string;
  seed : int;
  effort : string;
  flow : string;
  replicas : int;
  exchange : string;
  scheduler : string;
  time_budget : float option;
  max_moves : int option;
}

let default_spec =
  {
    label = "job";
    circuit = None;
    blif = None;
    tracks = 28;
    scheme = "actel";
    seed = 1;
    effort = "quick";
    flow = "sa";
    replicas = 1;
    exchange = "independent";
    scheduler = "barrier";
    time_budget = None;
    max_moves = None;
  }

(* The one decoding of a spec into the tool configuration it runs:
   admission validates through it and the worker runs what it returns.
   [n] sizes the annealing schedule (the design's cell count). *)
let tool_config s ~n =
  let module C = Spr_core.Tool.Config in
  let effort =
    match Spr_experiments.Profiles.effort_of_string s.effort with
    | Some e -> Ok e
    | None -> Error (Printf.sprintf "effort must be quick|standard|thorough (got %s)" s.effort)
  in
  let exchange = Spr_anneal.Portfolio.exchange_of_string s.exchange in
  let kind = C.scheduler_of_string s.scheduler in
  match (effort, exchange, kind) with
  | Ok effort, Ok exchange, Ok kind ->
    Spr_experiments.Profiles.tool_config ~seed:s.seed effort ~n
    |> C.with_flow_preset s.flow
    |> (match s.time_budget with Some b -> C.with_time_budget b | None -> Fun.id)
    |> (match s.max_moves with Some m -> C.with_max_moves m | None -> Fun.id)
    |> C.with_replicas ~exchange s.replicas
    |> C.with_scheduler_kind kind
    |> C.with_run_label s.label
    |> C.validated
  | _ ->
    let error = function Ok _ -> [] | Error e -> [ e ] in
    Error (String.concat "; " (error effort @ error exchange @ error kind))

let validate_spec s =
  let errors = ref [] in
  let reject fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (match s.circuit, s.blif with
  | None, None -> reject "provide a circuit name or BLIF text"
  | Some _, Some _ -> reject "provide a circuit name or BLIF text, not both"
  | Some name, None ->
    if Spr_netlist.Circuits.find name = None then reject "unknown circuit %s" name
  | None, Some _ -> ());
  if s.tracks < 1 then reject "tracks must be >= 1 (got %d)" s.tracks;
  if Spr_arch.Segmentation.scheme_of_string s.scheme = None then
    reject "unknown segmentation scheme %s" s.scheme;
  (* Admission-time config validation: the config the worker will run
     goes through the smart constructor now, so a bad flow preset (or
     any other config-level problem) is a clear protocol error, not a
     forked worker dying later. *)
  (match tool_config s ~n:100 with Ok _ -> () | Error e -> reject "%s" e);
  match !errors with
  | [] -> Ok s
  | errs -> Error (String.concat "; " (List.rev errs))

type state = Queued | Running of int | Parked | Done of string | Failed of string | Cancelled

let state_to_string = function
  | Queued -> "queued"
  | Running pid -> Printf.sprintf "running (pid %d)" pid
  | Parked -> "parked"
  | Done status -> "done: " ^ status
  | Failed e -> "failed: " ^ e
  | Cancelled -> "cancelled"

type t = {
  id : string;
  spec : spec;
  mutable state : state;
  submitted_at : float;
  mutable updated_at : float;
}

(* --- JSON --- *)

let opt f = function None -> J.Null | Some v -> f v

let spec_to_json s =
  J.Obj
    [
      ("label", J.String s.label);
      ("circuit", opt (fun c -> J.String c) s.circuit);
      ("blif", opt (fun b -> J.String b) s.blif);
      ("tracks", J.Int s.tracks);
      ("scheme", J.String s.scheme);
      ("seed", J.Int s.seed);
      ("effort", J.String s.effort);
      ("flow", J.String s.flow);
      ("replicas", J.Int s.replicas);
      ("exchange", J.String s.exchange);
      ("scheduler", J.String s.scheduler);
      ("time_budget", opt (fun b -> J.Float b) s.time_budget);
      ("max_moves", opt (fun m -> J.Int m) s.max_moves);
    ]

exception Decode of string

let get j name =
  match J.member name j with Some v -> v | None -> raise (Decode ("missing field " ^ name))

let dstr j name =
  match J.to_str (get j name) with
  | Some s -> s
  | None -> raise (Decode ("field " ^ name ^ ": expected string"))

let dint j name =
  match J.to_int (get j name) with
  | Some i -> i
  | None -> raise (Decode ("field " ^ name ^ ": expected int"))

let dfloat j name =
  match J.to_float (get j name) with
  | Some f -> f
  | None -> raise (Decode ("field " ^ name ^ ": expected number"))

let dopt j name conv =
  match J.member name j with
  | None | Some J.Null -> None
  | Some v -> (
    match conv v with
    | Some x -> Some x
    | None -> raise (Decode ("field " ^ name ^ ": bad value")))

let wrap_decode f j =
  match f j with
  | v -> Ok v
  | exception Decode msg -> Error msg
  | exception exn -> Error ("malformed job record: " ^ Printexc.to_string exn)

let spec_of_json =
  wrap_decode (fun j ->
      {
        label = dstr j "label";
        circuit = dopt j "circuit" J.to_str;
        blif = dopt j "blif" J.to_str;
        tracks = dint j "tracks";
        scheme = dstr j "scheme";
        seed = dint j "seed";
        effort = dstr j "effort";
        (* Specs written before the flow field existed decode as the
           plain simultaneous anneal. *)
        flow = Option.value (dopt j "flow" J.to_str) ~default:"sa";
        replicas = dint j "replicas";
        exchange = dstr j "exchange";
        (* Specs written before the scheduler field existed decode as
           the all-active exchange barrier — the pre-racing behavior. *)
        scheduler = Option.value (dopt j "scheduler" J.to_str) ~default:"barrier";
        time_budget = dopt j "time_budget" J.to_float;
        max_moves = dopt j "max_moves" J.to_int;
      })

let state_to_json = function
  | Queued -> J.Obj [ ("st", J.String "queued") ]
  | Running pid -> J.Obj [ ("st", J.String "running"); ("pid", J.Int pid) ]
  | Parked -> J.Obj [ ("st", J.String "parked") ]
  | Done status -> J.Obj [ ("st", J.String "done"); ("status", J.String status) ]
  | Failed e -> J.Obj [ ("st", J.String "failed"); ("error", J.String e) ]
  | Cancelled -> J.Obj [ ("st", J.String "cancelled") ]

let state_of_json_exn j =
  match dstr j "st" with
  | "queued" -> Queued
  | "running" -> Running (dint j "pid")
  | "parked" -> Parked
  | "done" -> Done (dstr j "status")
  | "failed" -> Failed (dstr j "error")
  | "cancelled" -> Cancelled
  | st -> raise (Decode ("unknown job state " ^ st))

let schema = "spr-serve-job-1"

let to_json t =
  J.Obj
    [
      ("schema", J.String schema);
      ("id", J.String t.id);
      ("spec", spec_to_json t.spec);
      ("state", state_to_json t.state);
      ("submitted_at", J.Float t.submitted_at);
      ("updated_at", J.Float t.updated_at);
    ]

let of_json =
  wrap_decode (fun j ->
      let s = dstr j "schema" in
      if s <> schema then raise (Decode ("unknown job schema " ^ s));
      let spec =
        match spec_of_json (get j "spec") with Ok s -> s | Error e -> raise (Decode e)
      in
      {
        id = dstr j "id";
        spec;
        state = state_of_json_exn (get j "state");
        submitted_at = dfloat j "submitted_at";
        updated_at = dfloat j "updated_at";
      })

(* --- store --- *)

let jobs_root state_dir = Filename.concat state_dir "jobs"

let dir ~state_dir id = Filename.concat (jobs_root state_dir) id

let in_dir ~state_dir t name = Filename.concat (dir ~state_dir t.id) name

let run_dir ~state_dir t = in_dir ~state_dir t "run"

let design_file ~state_dir t = in_dir ~state_dir t "design.blif"

let outcome_file ~state_dir t = in_dir ~state_dir t "outcome.json"

let report_file ~state_dir t = in_dir ~state_dir t "report.json"

let trace_file ~state_dir t = in_dir ~state_dir t "trace.jsonl"

let layout_file ~state_dir t = in_dir ~state_dir t "layout.ckpt"

let log_file ~state_dir t = in_dir ~state_dir t "log.txt"

let job_file ~state_dir t = in_dir ~state_dir t "job.json"

let id_of_dirname name =
  if String.length name = 12 && String.sub name 0 4 = "job-" then
    int_of_string_opt (String.sub name 4 8)
  else None

let fresh_id ~state_dir =
  let next =
    match Sys.readdir (jobs_root state_dir) with
    | exception Sys_error _ -> 1
    | entries ->
      1 + Array.fold_left (fun hi e -> match id_of_dirname e with Some n -> max hi n | None -> hi) 0 entries
  in
  Printf.sprintf "job-%08d" next

let save ~state_dir t =
  Spr_util.Persist.atomic_write ~durable:true (job_file ~state_dir t)
    (J.to_string ~indent:true (to_json t) ^ "\n")

let create ~state_dir ~spec ~now =
  Spr_util.Persist.ensure_dir state_dir;
  Spr_util.Persist.ensure_dir (jobs_root state_dir);
  let id = fresh_id ~state_dir in
  let t = { id; spec; state = Queued; submitted_at = now; updated_at = now } in
  Spr_util.Persist.ensure_dir (dir ~state_dir id);
  (match spec.blif with
  | Some text -> Spr_util.Persist.atomic_write ~durable:true (design_file ~state_dir t) text
  | None -> ());
  save ~state_dir t;
  t

let scan ~state_dir =
  match Sys.readdir (jobs_root state_dir) with
  | exception Sys_error _ -> ([], [])
  | entries ->
    let jobs, bad =
      Array.to_list entries
      |> List.filter (fun e -> id_of_dirname e <> None)
      |> List.sort compare
      |> List.fold_left
           (fun (jobs, bad) id ->
             let path = Filename.concat (dir ~state_dir id) "job.json" in
             match Spr_util.Persist.read_file path with
             | Error e -> (jobs, Printf.sprintf "%s: %s" path e :: bad)
             | Ok text -> (
               match J.parse text with
               | Error e -> (jobs, Printf.sprintf "%s: %s" path e :: bad)
               | Ok j -> (
                 match of_json j with
                 | Error e -> (jobs, Printf.sprintf "%s: %s" path e :: bad)
                 | Ok job -> (job :: jobs, bad))))
           ([], [])
    in
    (List.rev jobs, List.rev bad)
