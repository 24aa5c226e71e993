(** Jobs: what a client submits, every state it moves through, and the
    crash-safe on-disk record the daemon recovers from.

    One job owns one directory under [<state_dir>/jobs/<id>/]:

    {v
    job.json      the spec + current state (atomic + durable rewrite
                  on every transition — the daemon's source of truth
                  across restarts)
    design.blif   the submitted BLIF bytes (byte-exact, so re-parsing
                  reproduces the original net ids)
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

type spec = {
  label : string;
  circuit : string option;
      (** Built-in circuit name; rebuilt from its spec on every
          invocation so net ids are reproducible. *)
  blif : string option;
      (** BLIF text; exactly one of [circuit]/[blif] is set (enforced
          by {!validate_spec}). *)
  tracks : int;
  scheme : string;  (** Segmentation scheme spelling. *)
  seed : int;
  effort : string;  (** quick | standard | thorough. *)
  flow : string;
      (** Flow preset the worker runs ([sa], [ap+sa], ... — the
          {!Spr_core.Tool.Config} flow vocabulary). Specs written
          before this field existed decode as ["sa"]. *)
  replicas : int;
  exchange : string;  (** Portfolio exchange policy spelling. *)
  scheduler : string;
      (** Fleet scheduler spelling ([barrier] or [racing] — the
          {!Spr_core.Tool.Config.scheduler_of_string} vocabulary).
          Specs written before this field existed decode as ["barrier"],
          the pre-racing behavior. *)
  time_budget : float option;
      (** Per-invocation wall-clock budget, which is also the job's
          soft timeout: the worker stops itself gracefully through the
          normal budget path. The daemon adds a hard backstop on top
          ({!Daemon}). *)
  max_moves : int option;
}

val default_spec : spec
(** s1-shaped defaults: 28 tracks, actel scheme, seed 1, quick effort,
    serial, no budgets. *)

val tool_config : spec -> n:int -> (Spr_core.Tool.config, string) result
(** The tool configuration a job runs — effort profile sized for an
    [n]-cell design, flow preset, budgets, fleet, scheduler and label —
    run through {!Spr_core.Tool.Config.validated}. Bad effort, exchange
    or scheduler spellings are errors naming the valid values, never
    silent fallbacks. Admission and the worker both build the config
    here. *)

val validate_spec : spec -> (spec, string) result
(** Admission-side sanity: exactly one design source, positive tracks,
    a known segmentation scheme, and a {!tool_config} that decodes and
    validates (so e.g. racing with a [best:N] exchange or an unknown
    scheduler is refused here), every problem named in one message. A
    spec the worker could not run is a clear protocol error at submit
    time instead of a forked worker failing later. The daemon rejects
    invalid specs before a job id is ever allocated. *)

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
  spec : spec;
  mutable state : state;
  submitted_at : float;
  mutable updated_at : float;
}

(** {1 JSON} *)

val spec_to_json : spec -> Spr_obs.Json.t

val spec_of_json : Spr_obs.Json.t -> (spec, string) result

val to_json : t -> Spr_obs.Json.t

val of_json : Spr_obs.Json.t -> (t, string) result

(** {1 Store} *)

val jobs_root : string -> string
(** [<state_dir>/jobs]. *)

val dir : state_dir:string -> string -> string
(** A job's directory, from its id. *)

val run_dir : state_dir:string -> t -> string

val design_file : state_dir:string -> t -> string

val outcome_file : state_dir:string -> t -> string

val report_file : state_dir:string -> t -> string

val trace_file : state_dir:string -> t -> string

val layout_file : state_dir:string -> t -> string

val log_file : state_dir:string -> t -> string

val fresh_id : state_dir:string -> string
(** [job-NNNNNNNN], one past the highest id present on disk. *)

val create : state_dir:string -> spec:spec -> now:float -> t
(** Allocate an id, create the job directory, write [design.blif] (for
    BLIF-text specs) and the initial durable [job.json]. The job is
    admitted once this returns: a daemon crash after this point
    recovers it. *)

val save : state_dir:string -> t -> unit
(** Durable atomic rewrite of [job.json] (call on every state
    transition). *)

val scan : state_dir:string -> t list * string list
(** All recoverable jobs in ascending id order, plus one diagnostic per
    job directory whose [job.json] is missing or malformed (those are
    skipped, never trusted). *)
