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

let devent j name = J.ok ~context:("field " ^ name) (Spr_obs.Trace.event_of_json (J.get j name))

(* --- requests --- *)

let request_to_json = function
  | Submit spec -> J.Obj [ ("req", J.String "submit"); ("spec", Spec.to_json spec) ]
  | Jobs -> J.Obj [ ("req", J.String "jobs") ]
  | Cancel id -> J.Obj [ ("req", J.String "cancel"); ("id", J.String id) ]
  | Ping -> J.Obj [ ("req", J.String "ping") ]

let request_of_json =
  J.decode ~what:"message" (fun j ->
      match J.dstr j "req" with
      | "submit" -> Submit (J.ok ~context:"submit spec" (Spec.of_json (J.get j "spec")))
      | "jobs" -> Jobs
      | "cancel" -> Cancel (J.dstr j "id")
      | "ping" -> Ping
      | req -> J.fail "unknown request %s" req)

(* --- responses --- *)

let reject_to_json = function
  | Overloaded { queued; backoff_s } ->
    J.Obj
      [ ("why", J.String "overloaded"); ("queued", J.Int queued); ("backoff_s", J.Float backoff_s) ]
  | Draining -> J.Obj [ ("why", J.String "draining") ]
  | Invalid msg -> J.Obj [ ("why", J.String "invalid"); ("message", J.String msg) ]

let reject_of_json_exn j =
  match J.dstr j "why" with
  | "overloaded" -> Overloaded { queued = J.dint j "queued"; backoff_s = J.dfloat j "backoff_s" }
  | "draining" -> Draining
  | "invalid" -> Invalid (J.dstr j "message")
  | why -> J.fail "unknown rejection %s" why

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
    row_id = J.dstr j "id";
    row_label = J.dstr j "label";
    row_state = J.dstr j "state";
    row_submitted_at = J.dfloat j "submitted_at";
    row_updated_at = J.dfloat j "updated_at";
    row_pid = J.dopt J.dint j "pid";
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
  J.decode ~what:"message" (fun j ->
      match J.dstr j "resp" with
      | "accepted" -> Accepted (J.dstr j "id")
      | "rejected" -> Rejected (reject_of_json_exn (J.get j "reason"))
      | "event" -> Event (devent j "event")
      | "done" ->
        Job_done
          { id = J.dstr j "id"; status = J.dstr j "status"; report = J.dopt J.get j "report" }
      | "failed" -> Job_failed { id = J.dstr j "id"; error = J.dstr j "error" }
      | "parked" -> Job_parked { id = J.dstr j "id"; message = J.dstr j "message" }
      | "cancelled" -> Job_cancelled (J.dstr j "id")
      | "jobs" -> Jobs_list (List.map row_of_json_exn (J.dlist j "jobs"))
      | "error" -> Error (J.dstr j "message")
      | "pong" -> Pong
      | resp -> J.fail "unknown response %s" resp)

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
  J.decode ~what:"message" (fun j ->
      match J.dstr j "w" with
      | "event" -> W_event (devent j "event")
      | "result" -> W_result { status = J.dstr j "status"; report = J.dopt J.get j "report" }
      | "error" -> W_error (J.dstr j "message")
      | w -> J.fail "unknown worker message %s" w)
