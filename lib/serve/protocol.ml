module J = Spr_obs.Json

type request =
  | Submit of Spec.t
  | Jobs
  | Cancel of string
  | Ping

type reject_reason =
  | Overloaded of { queued : int; backoff_s : float }
  | Draining
  | Invalid of string

type job_row = {
  row_id : string;
  row_label : string;
  row_state : string;
  row_submitted_at : float;
  row_updated_at : float;
  row_pid : int option;
}

type response =
  | Accepted of string
  | Rejected of reject_reason
  | Event of Spr_obs.Trace.event
  | Job_done of { id : string; status : string; report : Spr_obs.Json.t option }
  | Job_failed of { id : string; error : string }
  | Job_parked of { id : string; message : string }
  | Job_cancelled of string
  | Jobs_list of job_row list
  | Error of string
  | Pong

type worker_msg =
  | W_event of Spr_obs.Trace.event
  | W_result of { status : string; report : Spr_obs.Json.t option }
  | W_error of string

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

(* [Error] below shadows the result constructor; the annotation keeps
   Ok/Error here pointing at Stdlib.result. *)
let wrap (f : J.t -> 'a) (j : J.t) : ('a, string) result =
  match f j with
  | v -> Stdlib.Ok v
  | exception Decode msg -> Stdlib.Error msg
  | exception exn -> Stdlib.Error ("malformed message: " ^ Printexc.to_string exn)

let devent j name =
  match Spr_obs.Trace.event_of_json (get j name) with
  | Ok ev -> ev
  | Error e -> raise (Decode ("field " ^ name ^ ": " ^ e))

(* --- requests --- *)

let request_to_json = function
  | Submit spec -> J.Obj [ ("req", J.String "submit"); ("spec", Spec.to_json spec) ]
  | Jobs -> J.Obj [ ("req", J.String "jobs") ]
  | Cancel id -> J.Obj [ ("req", J.String "cancel"); ("id", J.String id) ]
  | Ping -> J.Obj [ ("req", J.String "ping") ]

let request_of_json =
  wrap (fun j ->
      match dstr j "req" with
      | "submit" -> (
        match Spec.of_json (get j "spec") with
        | Ok spec -> Submit spec
        | Error e -> raise (Decode ("submit spec: " ^ e)))
      | "jobs" -> Jobs
      | "cancel" -> Cancel (dstr j "id")
      | "ping" -> Ping
      | req -> raise (Decode ("unknown request " ^ req)))

(* --- responses --- *)

let reject_to_json = function
  | Overloaded { queued; backoff_s } ->
    J.Obj
      [ ("why", J.String "overloaded"); ("queued", J.Int queued); ("backoff_s", J.Float backoff_s) ]
  | Draining -> J.Obj [ ("why", J.String "draining") ]
  | Invalid msg -> J.Obj [ ("why", J.String "invalid"); ("message", J.String msg) ]

let reject_of_json_exn j =
  match dstr j "why" with
  | "overloaded" -> Overloaded { queued = dint j "queued"; backoff_s = dfloat j "backoff_s" }
  | "draining" -> Draining
  | "invalid" -> Invalid (dstr j "message")
  | why -> raise (Decode ("unknown rejection " ^ why))

let row_to_json r =
  J.Obj
    [
      ("id", J.String r.row_id);
      ("label", J.String r.row_label);
      ("state", J.String r.row_state);
      ("submitted_at", J.Float r.row_submitted_at);
      ("updated_at", J.Float r.row_updated_at);
      ("pid", match r.row_pid with Some p -> J.Int p | None -> J.Null);
    ]

let row_of_json_exn j =
  {
    row_id = dstr j "id";
    row_label = dstr j "label";
    row_state = dstr j "state";
    row_submitted_at = dfloat j "submitted_at";
    row_updated_at = dfloat j "updated_at";
    row_pid = (match J.member "pid" j with Some (J.Int p) -> Some p | _ -> None);
  }

let opt_report = function None -> J.Null | Some r -> r

let response_to_json = function
  | Accepted id -> J.Obj [ ("resp", J.String "accepted"); ("id", J.String id) ]
  | Rejected r -> J.Obj [ ("resp", J.String "rejected"); ("reason", reject_to_json r) ]
  | Event ev -> J.Obj [ ("resp", J.String "event"); ("event", Spr_obs.Trace.event_to_json ev) ]
  | Job_done { id; status; report } ->
    J.Obj
      [
        ("resp", J.String "done");
        ("id", J.String id);
        ("status", J.String status);
        ("report", opt_report report);
      ]
  | Job_failed { id; error } ->
    J.Obj [ ("resp", J.String "failed"); ("id", J.String id); ("error", J.String error) ]
  | Job_parked { id; message } ->
    J.Obj [ ("resp", J.String "parked"); ("id", J.String id); ("message", J.String message) ]
  | Job_cancelled id -> J.Obj [ ("resp", J.String "cancelled"); ("id", J.String id) ]
  | Jobs_list rows -> J.Obj [ ("resp", J.String "jobs"); ("jobs", J.List (List.map row_to_json rows)) ]
  | Error msg -> J.Obj [ ("resp", J.String "error"); ("message", J.String msg) ]
  | Pong -> J.Obj [ ("resp", J.String "pong") ]

let response_of_json =
  wrap (fun j ->
      match dstr j "resp" with
      | "accepted" -> Accepted (dstr j "id")
      | "rejected" -> Rejected (reject_of_json_exn (get j "reason"))
      | "event" -> Event (devent j "event")
      | "done" ->
        Job_done
          {
            id = dstr j "id";
            status = dstr j "status";
            report = (match J.member "report" j with None | Some J.Null -> None | Some r -> Some r);
          }
      | "failed" -> Job_failed { id = dstr j "id"; error = dstr j "error" }
      | "parked" -> Job_parked { id = dstr j "id"; message = dstr j "message" }
      | "cancelled" -> Job_cancelled (dstr j "id")
      | "jobs" -> (
        match get j "jobs" with
        | J.List rows -> Jobs_list (List.map row_of_json_exn rows)
        | _ -> raise (Decode "field jobs: expected list"))
      | "error" -> Error (dstr j "message")
      | "pong" -> Pong
      | resp -> raise (Decode ("unknown response " ^ resp)))

let is_terminal = function
  | Job_done _ | Job_failed _ | Job_parked _ | Job_cancelled _ -> true
  | Accepted _ | Rejected _ | Event _ | Jobs_list _ | Error _ | Pong -> false

(* --- worker pipe --- *)

let worker_to_json = function
  | W_event ev -> J.Obj [ ("w", J.String "event"); ("event", Spr_obs.Trace.event_to_json ev) ]
  | W_result { status; report } ->
    J.Obj [ ("w", J.String "result"); ("status", J.String status); ("report", opt_report report) ]
  | W_error msg -> J.Obj [ ("w", J.String "error"); ("message", J.String msg) ]

let worker_of_json =
  wrap (fun j ->
      match dstr j "w" with
      | "event" -> W_event (devent j "event")
      | "result" ->
        W_result
          {
            status = dstr j "status";
            report = (match J.member "report" j with None | Some J.Null -> None | Some r -> Some r);
          }
      | "error" -> W_error (dstr j "message")
      | w -> raise (Decode ("unknown worker message " ^ w)))
