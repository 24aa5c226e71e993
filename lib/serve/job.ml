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

let id_of_dirname name =
  if String.length name = 12 && String.sub name 0 4 = "job-" then
    int_of_string_opt (String.sub name 4 8)
  else None

(* --- JSON --- *)

let state_to_json = function
  | Queued -> J.Obj [ ("st", J.String "queued") ]
  | Running pid -> J.Obj [ ("st", J.String "running"); ("pid", J.Int pid) ]
  | Parked -> J.Obj [ ("st", J.String "parked") ]
  | Done status -> J.Obj [ ("st", J.String "done"); ("status", J.String status) ]
  | Failed e -> J.Obj [ ("st", J.String "failed"); ("error", J.String e) ]
  | Cancelled -> J.Obj [ ("st", J.String "cancelled") ]

let state_of_json_exn j =
  match J.dstr j "st" with
  | "queued" -> Queued
  | "running" ->
    (* A recovering daemon SIGKILLs this pid; kill(2) reads 0 and -1 as
       "the process group" and "every process". *)
    let pid = J.dint j "pid" in
    if pid <= 0 then J.fail "worker pid must be positive (got %d)" pid;
    Running pid
  | "parked" -> Parked
  | "done" -> Done (J.dstr j "status")
  | "failed" -> Failed (J.dstr j "error")
  | "cancelled" -> Cancelled
  | st -> J.fail "unknown job state %s" st

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
  J.decode ~what:"job record" (fun j ->
      let s = J.dstr j "schema" in
      if s <> schema then J.fail "unknown job schema %s" s;
      let id = J.dstr j "id" in
      if id_of_dirname id = None then J.fail "malformed job id %S" id;
      {
        id;
        spec = J.ok (Spec.of_json (J.get j "spec"));
        state = state_of_json_exn (J.get j "state");
        submitted_at = J.dfloat j "submitted_at";
        updated_at = J.dfloat j "updated_at";
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
                 | Ok job when job.id <> id ->
                   (* Trusting it would queue, fence and write outcomes
                      under another job's directory. *)
                   (jobs, Printf.sprintf "%s: record is for %s" path job.id :: bad)
                 | Ok job -> (job :: jobs, bad))))
           ([], [])
    in
    (List.rev jobs, List.rev bad)
