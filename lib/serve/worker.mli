(** The per-job worker process body.

    The daemon forks one worker per running job; the child calls
    {!main} and never returns. Isolation is the point: a worker that
    raises, corrupts itself, or is killed outright takes down nothing
    but its own job — the daemon observes the death through [waitpid]
    and the result pipe going quiet.

    The worker owns its job directory: it redirects stdout/stderr to
    [log.txt], always runs the flow engine ({!Spr_flow.run}) with
    [~resume:true] over the job's run directory (so a re-run after a
    crash resumes from the newest snapshots and a first run starts
    fresh — same call either way), streams every trace event to
    the daemon over the result pipe as {!Protocol.W_event} frames, and
    finishes by durably writing [outcome.json] {e before} sending the
    {!Protocol.W_result} frame. That ordering is the crash-recovery
    hinge: if the daemon dies before reading the frame, the outcome is
    already on disk and the restarted daemon recovers the result
    instead of re-running the job.

    SIGTERM is the graceful-stop channel: {!Spr_core.Tool}'s handler
    turns it into an interrupt that stops whichever flow stage is
    running (an anneal between moves, with a final checkpoint; an
    earlier stage with the layout it holds), and the worker still
    exits 0 with an
    [interrupted] outcome (the daemon decides whether that means
    parked, cancelled, or timed out). A broken pipe (daemon died)
    silently stops streaming but the run carries on — the outcome file
    preserves the result for recovery. *)

val outcome_schema : string

val outcome_to_json :
  ok:bool -> status:string option -> error:string option -> report:Spr_obs.Json.t option ->
  Spr_obs.Json.t

val read_outcome :
  string ->
  ( [ `Ok of string * Spr_obs.Json.t option  (** status, report *) | `Error of string ],
    string )
  result
(** Parse an [outcome.json]; the outer [Error] means the file is
    missing or malformed (treat as "no outcome"). *)

val main : state_dir:string -> job:Job.t -> pipe:Unix.file_descr -> 'a
(** Run the job to completion and [exit] — 0 when the run produced a
    result (completed or gracefully interrupted), 1 on error. *)
