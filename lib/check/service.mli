(** Service-level fault injection for the [spr serve] job daemon.

    Where {!Crash} kills a single in-process run at an accepted-move
    index, this harness targets the whole service stack: worker
    processes killed mid-job, the daemon itself [kill -9]'d and
    restarted, clients vanishing mid-stream, and adversarial bytes
    thrown at the socket. Like {!Crash} it cannot depend on the serve
    layer (the dependency points the other way), so it is
    parameterized over closures that the test suite wires to real
    daemon processes.

    The headline property: a daemon killed outright once [k] snapshots
    of a job exist, then restarted, finishes that job with an outcome
    identical to the never-killed service ({!Crash.compare_outcomes}).
    On a mismatch the harness shrinks [k] toward 1 — earlier kills
    leave less recovered state and smaller counterexamples. *)

(** {1 Adversarial frame bytes}

    Raw byte strings that are {e not} valid frames, for throwing at the
    daemon socket: truncated or non-numeric length lines, absurd
    lengths, valid headers over non-JSON or truncated payloads, binary
    junk. The daemon must answer each with a structured error (or hang
    up), never die or corrupt another client's conversation. *)

val garbage_frames : rng:Spr_util.Rng.t -> n:int -> string list

(** {1 Recovery equivalence} *)

type runner = {
  reference : unit -> (Crash.outcome, string) Stdlib.result;
      (** Run the job through a service that is never killed. *)
  interrupted : kill_after_snapshots:int -> (bool, string) Stdlib.result;
      (** Run the service and [kill -9] daemon + worker once the job's
          run directory holds at least this many snapshots. [Ok false]
          when the job finished before the kill point fired (vacuous
          pass). *)
  recover : unit -> (Crash.outcome, string) Stdlib.result;
      (** Restart the daemon over the same state directory and wait for
          the recovered job's outcome. *)
  reset : unit -> unit;  (** Wipe the interrupted service's state. *)
}

type failure = Crash.failure = {
  f_kill_after : int;  (** Smallest failing snapshot count found. *)
  f_shrunk_from : int;
  f_error : string;
}

val failure_to_string : failure -> string

val check_recovery :
  ?attempts:int ->
  rng:Spr_util.Rng.t ->
  max_kill:int ->
  runner ->
  (unit, failure) Stdlib.result
(** {!Crash.search} over snapshot counts: sample [attempts] (default 2)
    from [\[1, max_kill\]]; for each, interrupt, recover, and compare
    against the reference (computed once). First mismatch shrinks toward
    1. The harness never raises; closure exceptions become failures. *)
