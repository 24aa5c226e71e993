module J = Spr_obs.Json

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
  spec : Spec.t;
  mutable state : state;
  submitted_at : float;
  mutable updated_at : float;
}

(* --- JSON --- *)

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

let wrap_decode f j =
  match f j with
  | v -> Ok v
  | exception Decode msg -> Error msg
  | exception exn -> Error ("malformed job record: " ^ Printexc.to_string exn)

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
      ("spec", Spec.to_json t.spec);
      ("state", state_to_json t.state);
      ("submitted_at", J.Float t.submitted_at);
      ("updated_at", J.Float t.updated_at);
    ]

let of_json =
  wrap_decode (fun j ->
      let s = dstr j "schema" in
      if s <> schema then raise (Decode ("unknown job schema " ^ s));
      let spec =
        match Spec.of_json (get j "spec") with Ok s -> s | Error e -> raise (Decode e)
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
