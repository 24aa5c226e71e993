(** Typed messages for the [spr serve] socket protocol (one {!Frame}
    per message).

    A client connection carries exactly one conversation: a request
    frame, then the daemon's replies. [Submit] is the only streaming
    conversation — after [Accepted] the daemon forwards the worker's
    trace events as [Event] frames and finishes with exactly one
    terminal frame ([Job_done] / [Job_failed] / [Job_parked] /
    [Job_cancelled]). Every codec is total: unknown or malformed
    messages decode to [Error _], never an exception. *)

type request =
  | Submit of Spec.t
  | Jobs  (** List all known jobs. *)
  | Cancel of string  (** Cancel a queued or running job by id. *)
  | Ping

type reject_reason =
  | Overloaded of { queued : int; backoff_s : float }
      (** The bounded queue is full. [backoff_s] is the daemon's
          estimate of when capacity frees up (queue depth x rolling
          mean job seconds). *)
  | Draining  (** The daemon is shutting down and not admitting work. *)
  | Invalid of string  (** The spec failed {!Spec.validate}. *)

type job_row = {
  row_id : string;
  row_label : string;
  row_state : string;
  row_submitted_at : float;
  row_updated_at : float;
  row_pid : int option;
}

type response =
  | Accepted of string  (** Job id; the job record is already durable. *)
  | Rejected of reject_reason
  | Event of Spr_obs.Trace.event  (** Live trace event from the worker. *)
  | Job_done of { id : string; status : string; report : Spr_obs.Json.t option }
  | Job_failed of { id : string; error : string }
      (** The worker died without a result (crash, external kill). Only
          this job is affected. *)
  | Job_parked of { id : string; message : string }
      (** The run was interrupted but left a resumable run dir; the job
          re-runs on the next daemon start. *)
  | Job_cancelled of string
  | Jobs_list of job_row list
  | Error of string  (** Protocol-level failure (corrupt frame, ...). *)
  | Pong

(** What a worker process sends its parent over the result pipe. *)
type worker_msg =
  | W_event of Spr_obs.Trace.event
  | W_result of { status : string; report : Spr_obs.Json.t option }
  | W_error of string

val request_to_json : request -> Spr_obs.Json.t

val request_of_json : Spr_obs.Json.t -> (request, string) result

val response_to_json : response -> Spr_obs.Json.t

val response_of_json : Spr_obs.Json.t -> (response, string) result

val worker_to_json : worker_msg -> Spr_obs.Json.t

val worker_of_json : Spr_obs.Json.t -> (worker_msg, string) result

val is_terminal : response -> bool
(** True for the frames that end a submit conversation. *)
