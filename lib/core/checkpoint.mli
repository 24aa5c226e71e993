(** Save and restore a complete layout — fabric parameters, placement,
    pinmaps, and every net's routing — as a line-oriented text format.

    A real layout tool needs this for incremental (ECO) flows: finish a
    long annealing run once, then reload the layout for inspection,
    re-timing, or small edits (see {!Eco}).

    Restoring replays the routing through the normal claiming paths, so a
    loaded state satisfies every {!Spr_route.Route_state.check} invariant
    or the load fails with a diagnostic. *)

val to_string : Spr_route.Route_state.t -> string

val save : Spr_route.Route_state.t -> string -> unit

val of_string :
  Spr_netlist.Netlist.t -> string -> (Spr_route.Route_state.t, string) Stdlib.result
(** The netlist must be the same design the checkpoint was written from
    (checked by cell/net counts and per-net terminal counts). Every
    field is range-checked against the design before it reaches
    {!Spr_arch.Arch} or {!Spr_route.Route_state}: a fabric with more
    rows or columns than cells, or more tracks than nets, and any
    out-of-range net, column, vertical track, channel, track or segment
    is an [Error], never an exception. *)

val load : Spr_netlist.Netlist.t -> string -> (Spr_route.Route_state.t, string) Stdlib.result

(** {1 Format v2: resumable mid-run snapshots}

    Version 2 wraps a complete annealer state — current layout, best
    layout so far, schedule position, RNG stream, adaptive weights,
    dynamics recorder — behind a checksummed header, so an interrupted
    run can continue bit-identically and a torn or corrupted file is
    detected rather than trusted.

    On-disk shape: one header line
    [spr-checkpoint 2 <fnv1a64-hex> <payload-bytes>] followed by exactly
    that many payload bytes. The checksum covers the payload; a length
    short of the header's count means truncation. Floats are serialized
    as IEEE-754 bit patterns so every value round-trips exactly. *)

module V2 : sig
  val format_version : int

  type payload = {
    engine : Spr_anneal.Engine.snapshot;
    rng_state : int64;
    weights : Spr_anneal.Weights.dump;
    dyn_flags : bool array;
    dyn_samples : Spr_obs.Report.dyn_row list;
    accepted_since_audit : int;
    memo : Spr_route.Route_state.memo;
        (** Failure-memoization stamps of the current layout. They gate
            which queued nets the retry pass attempts, so a resume
            without them drifts off the interrupted run's trajectory. *)
    best_cost : float;
    best_layout : string;
        (** v1 layout text of the best-so-far state, decoded lazily —
            only when an interrupted run must fall back to it. *)
  }

  type loaded = {
    data : payload;
    route : Spr_route.Route_state.t;
        (** The current (in-flight) layout, with [memo] already
            applied. *)
    path : string;
    seq : int;
  }

  val encode : payload -> current:Spr_route.Route_state.t -> string

  val decode :
    Spr_netlist.Netlist.t ->
    string ->
    (payload * Spr_route.Route_state.t, string) Stdlib.result
  (** Never raises on malformed input: truncation, checksum mismatch,
      bad records, and overrunning embedded blocks all return [Error]. *)

  (** {2 Run-directory rotation}

      Snapshots live in a run directory as [snap-NNNNNNNN.ckpt] with a
      monotonically increasing sequence number; writers keep the newest
      [keep] files and loaders fall back to older ones when the newest
      is damaged. Replica [k] of a fleet of several writes
      [snap-r<k>-NNNNNNNN.ckpt] instead (pass [?replica]), so the fleet
      shares one run directory with per-replica rotation and the
      replica files never match the untagged scan. *)

  val snapshot_path : ?replica:int -> string -> int -> string

  val snapshot_files : ?replica:int -> string -> (int * string) list
  (** [snapshot_files ?replica dir], newest first; empty if the
      directory is unreadable. *)

  val next_seq : ?replica:int -> string -> int

  val write :
    ?replica:int ->
    dir:string ->
    seq:int ->
    keep:int ->
    payload ->
    current:Spr_route.Route_state.t ->
    string
  (** Atomic (temp file + rename); prunes rotation entries beyond
      [keep]; returns the path written. *)

  val load_file :
    Spr_netlist.Netlist.t ->
    string ->
    (payload * Spr_route.Route_state.t, string) Stdlib.result

  val load_latest :
    ?replica:int -> Spr_netlist.Netlist.t -> dir:string -> (loaded, string) Stdlib.result
  (** Try snapshots newest-first, skipping damaged ones; [Error] lists
      every per-file failure when none loads. *)
end

(** {1 Persisted fleet rounds}

    A fleet records every exchange round {!Spr_anneal.Scheduler.rounds}
    reports as an atomic, checksummed [sched-NNNNNNNN.rec] file in the
    run directory, written under the scheduler lock before any replica
    acts on the round. Resuming a killed fleet replays these records,
    so the resumed trajectories match the uninterrupted run.

    On-disk shape: one header line
    [spr-sched 1 <fnv1a64-hex> <payload-bytes>], then the payload:
    [round <round> <leader> <metric-bits>], [kills 0], then
    [layout <bytes>] and that many layout bytes. The [kills 0] line
    stays so that records written by earlier versions still load. *)

module Round : sig
  val record_path : string -> int -> string
  (** [record_path dir round]. *)

  val encode : Spr_anneal.Scheduler.round_record -> string

  val decode : string -> (Spr_anneal.Scheduler.round_record, string) Stdlib.result
  (** Never raises. Truncation, checksum mismatch, malformed records,
      a round below 1, a negative leader, a kill count other than 0,
      and bytes past the layout all return [Error]. *)

  val write : dir:string -> Spr_anneal.Scheduler.round_record -> string
  (** Atomic and durable; returns the path written. *)

  val load_all : dir:string -> Spr_anneal.Scheduler.round_record list
  (** Every loadable record in ascending round order; torn or corrupt
      records are skipped (the round re-trips live on resume). *)
end
