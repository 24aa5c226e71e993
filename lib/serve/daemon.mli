(** The [spr serve] daemon: a single-threaded supervisor multiplexing a
    Unix-domain listening socket, client connections, and per-worker
    result pipes with [select].

    Supervision tree: the daemon forks one {!Worker} process per
    running job (never more than [max_workers]); a worker that raises
    or is killed fails only its own job — the daemon reaps it, records
    a structured [Failed] state, notifies that job's subscriber, and
    every other job is untouched. The daemon itself spawns no domains,
    so forking is safe; the child is free to spawn portfolio domains.

    Admission control: the queue is bounded by [max_queue]; a submit
    beyond it is rejected with [Overloaded] carrying a suggested
    backoff derived from queue depth and the rolling mean job duration.

    Hard timeout: a job still running 5 s past its own [time_budget] is
    SIGTERMed, and SIGKILLed [kill_grace] seconds later.

    Graceful drain: SIGTERM/SIGINT stop the daemon accepting
    connections, SIGTERM every worker (which checkpoints and exits with
    an interrupted result), park the interrupted jobs, and exit.
    Workers still alive after [drain_grace] seconds are SIGKILLed —
    their jobs are parked too, resuming from their newest snapshot.

    Crash recovery: every job transition is a durable [job.json]
    rewrite, and workers durably write [outcome.json] before reporting
    success, so a [kill -9]'d daemon loses nothing. On restart the scan
    re-enqueues queued and parked jobs; a job recorded [Running] is
    fenced (its recorded pid SIGKILLed, in case the orphan still runs),
    then either completed from its on-disk outcome or parked and
    re-enqueued to resume from its snapshots — bit-identical to an
    uninterrupted run by the crash-equivalence property. *)

type config = {
  state_dir : string;
  socket_path : string option;  (** Default [<state_dir>/serve.sock]. *)
  max_workers : int;
  max_queue : int;
  default_time_budget : float option;
      (** Applied to specs that carry no budget of their own; becomes
          part of the durable spec. *)
  kill_grace : float;
      (** Seconds between the hard-timeout SIGTERM and the SIGKILL. *)
  drain_grace : float;  (** Seconds drain waits before SIGKILL. *)
}

val default_config : state_dir:string -> config

val socket_path : config -> string

val run : config -> unit
(** Recover, bind, serve until drained. Returns after a graceful
    drain; exits only via signals it does not own. *)
