(** Crash-fault injection for resumable annealing runs.

    The property under test: a run killed at an arbitrary accepted-move
    index and resumed from its newest on-disk snapshot finishes with a
    layout {e identical} to the run that was never killed — same cost
    components, same track usage, same critical path.

    This library cannot depend on the tool layer (the dependency points
    the other way), so the harness is parameterized over a {!runner} of
    closures; the test suite wires them to [Spr_core.Tool] with
    fault-injection configs. The harness owns the search: randomized
    kill points, counterexample shrinking toward the smallest failing
    kill index, and the file-level corruption injectors used to test
    snapshot-rotation fallback. *)

type outcome = {
  o_layout : string;  (** Canonical layout dump ({!Spr_route.Route_state.snapshot}). *)
  o_g : int;
  o_d : int;
  o_critical_delay : float;
}

val compare_outcomes : reference:outcome -> outcome -> (unit, string) Stdlib.result
(** [Error] describes the first differing field. *)

type runner = {
  reference : unit -> outcome;
      (** The uninterrupted run (checkpointing on, so it canonicalizes
          at the same boundaries the crashed run does). *)
  crashed : kill_after:int -> bool;
      (** Run with a crash injected after [kill_after] accepted moves
          and {e no} final checkpoint — only periodic snapshots survive,
          as after a real [kill -9]. Returns [false] when the run
          completed before the kill point fired. *)
  resume : unit -> (outcome, string) Stdlib.result;
      (** Load the newest good snapshot the crashed run left behind and
          run it to completion. *)
  reset : unit -> unit;  (** Wipe the crashed run's directory. *)
}

type failure = {
  f_kill_after : int;  (** Smallest failing kill index found. *)
  f_shrunk_from : int;  (** The originally sampled failing kill index. *)
  f_error : string;
}

val failure_to_string : failure -> string

val search :
  attempts:int ->
  rng:Spr_util.Rng.t ->
  max_kill:int ->
  (int -> (unit, string) Stdlib.result) ->
  (unit, failure) Stdlib.result
(** The kill-and-resume search both harnesses run ({!check_equivalence}
    here, {!Service.check_recovery} over the daemon). [search ~attempts
    ~rng ~max_kill attempt] samples [attempts] kill points uniformly
    from [\[1, max_kill\]] and runs [attempt k], one full kill+resume
    cycle at kill point [k]: [Ok ()] when the property held or the kill
    point was never reached, [Error] with the mismatch otherwise. On the
    first failure it shrinks the kill point toward 1 — each candidate
    replayed through [attempt] — and reports the smallest still-failing
    one. *)

val check_equivalence :
  ?attempts:int ->
  rng:Spr_util.Rng.t ->
  max_kill:int ->
  runner ->
  (unit, failure) Stdlib.result
(** Sample [attempts] (default 3) kill indices uniformly from
    [\[1, max_kill\]]; for each, crash, resume, and compare against the
    reference outcome (computed once). On the first mismatch, shrink the
    kill index toward 1 — each candidate replayed through a full
    crash+resume cycle — and report the smallest still-failing index.
    Kill points the run never reaches count as vacuous passes. The
    harness never raises; exceptions from the closures become
    failures. *)

(** {1 Corruption injectors}

    Deliberately damage snapshot files the way real crashes and bad
    disks do, to test checksum detection and rotation fallback. These
    write in place, non-atomically — that is the point. *)

val truncate_file : string -> keep:int -> unit
(** Cut the file down to its first [keep] bytes. *)

val flip_byte : string -> at:int -> unit
(** XOR the byte at offset [at] (clamped into range) with 0xFF. *)
