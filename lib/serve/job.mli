(** Jobs: what a client submits, every state it moves through, and the
    crash-safe on-disk record the daemon recovers from.

    One job owns one directory under [<state_dir>/jobs/<id>/]:

    {v
    job.json      the {!Spec} (BLIF designs byte-exact inside it) +
                  current state (atomic + durable rewrite on every
                  transition — the daemon's source of truth across
                  restarts)
    run/          the Tool run directory: rotated V2 snapshots and
                  round records — the resume substrate
    outcome.json  written by the worker itself when the run finishes
                  (durable), so a result survives even if the daemon
                  dies before reading the worker's result frame
    report.json   the spr-report-1 run report
    trace.jsonl   the spr-trace-1 event trace of the last invocation
    layout.ckpt   the final layout (v1 checkpoint text) — what
                  bit-identical recovery is judged on
    log.txt       the worker's stdout/stderr
    v} *)

type state =
  | Queued
  | Running of int  (** worker pid *)
  | Parked
      (** Interrupted with a resumable run dir (drain, daemon crash);
          re-enqueued on the next daemon start. *)
  | Done of string  (** terminal status string, e.g. ["completed"]. *)
  | Failed of string  (** structured failure, e.g. worker killed. *)
  | Cancelled

val state_to_string : state -> string

type t = {
  id : string;
  spec : Spec.t;
  mutable state : state;
  submitted_at : float;
  mutable updated_at : float;
}

(** {1 JSON} *)

val to_json : t -> Spr_obs.Json.t

val of_json : Spr_obs.Json.t -> (t, string) result

(** {1 Store} *)

val jobs_root : string -> string
(** [<state_dir>/jobs]. *)

val dir : state_dir:string -> string -> string
(** A job's directory, from its id. *)

val run_dir : state_dir:string -> t -> string

val outcome_file : state_dir:string -> t -> string

val report_file : state_dir:string -> t -> string

val trace_file : state_dir:string -> t -> string

val layout_file : state_dir:string -> t -> string

val log_file : state_dir:string -> t -> string

val fresh_id : state_dir:string -> string
(** [job-NNNNNNNN], one past the highest id present on disk. *)

val create : state_dir:string -> spec:Spec.t -> now:float -> t
(** Allocate an id, create the job directory and write the initial
    durable [job.json]. The job is admitted once this returns: a daemon
    crash after this point recovers it. *)

val save : state_dir:string -> t -> unit
(** Durable atomic rewrite of [job.json] (call on every state
    transition). *)

val scan : state_dir:string -> t list * string list
(** All recoverable jobs in ascending id order, plus one diagnostic per
    job directory whose [job.json] is missing, malformed or names another
    job's id (those are skipped, never trusted). *)
