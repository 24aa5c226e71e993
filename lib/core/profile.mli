(** Per-phase wall-clock and counter instrumentation for the move
    pipeline.

    One {!t} accumulates over a whole annealing run; each
    {!Move_pipeline} phase brackets itself with {!time}, so the phase
    times sum to (almost exactly) the bracketed move total — the small
    remainder is inter-phase bookkeeping. {!mark}/{!since} give
    per-temperature deltas for the dynamics trace. Timing uses the
    monotonic-guarded {!Spr_util.Clock}, costing two clock reads per
    phase per move.

    Since the observability layer landed this is a facade over a
    {!Spr_obs.Metrics} registry — every tally and phase clock is a
    registry cell under a [pipeline.*] / [router.*] name, updated at
    the same one-store cost as the mutable record it replaced, and
    {!metrics_snapshot} exports the whole breakdown for traces and
    reports. *)

type phase = Propose | Rip_up | Global | Detail | Retime | Decide

val phases : phase list
(** Pipeline order. *)

val n_phases : int

val phase_index : phase -> int
(** Position in {!phases}; indexes the arrays produced by {!since}. *)

val phase_name : phase -> string

type t

val create : unit -> t

val absorb : t -> t -> unit
(** [absorb t other] adds every tally, time, and router counter of
    [other] into [t] (leaving [other] untouched). A fleet run
    merges per-replica profiles into one fleet-wide breakdown with
    this. *)

val record : t -> phase -> float -> unit
(** Add [dt] seconds (and one call) to a phase. *)

val time : t -> phase -> (unit -> 'a) -> 'a
(** Run the thunk inside a phase bracket. *)

val add_total : t -> float -> unit
(** Add to the whole-move wall clock (the denominator of
    {!coverage}). *)

val counters : t -> Spr_route.Router.counters
(** The router attempt/success cells of this profile's registry; thread
    this record through {!Spr_route.Router.reroute_global}/[reroute_detail]. *)

val phase_seconds : t -> phase -> float

val phase_calls : t -> phase -> int

val total_seconds : t -> float

val phase_sum : t -> float

val coverage : t -> float
(** [phase_sum / total]: the fraction of bracketed move time the phase
    brackets account for. [1.0] before any move. *)

type mark

val mark : t -> mark

val since : t -> mark -> float array * float * int
(** [(per-phase seconds, total seconds, moves)] accumulated since the
    mark; the array is indexed by {!phase_index}. *)

val pp : Format.formatter -> t -> unit
(** Human-readable per-phase breakdown with counters. *)

(** {1 Observability exports} *)

val registry : t -> Spr_obs.Metrics.t
(** The backing registry — for registering extra run-level metrics
    (e.g. the annealer's acceptance histogram) next to the pipeline's
    own, so one snapshot carries everything. *)

val metrics_snapshot : t -> (string * Spr_obs.Metrics.value) list
(** Registry snapshot: every pipeline and router cell. *)

val to_pipeline : t -> Spr_obs.Report.pipeline
(** The move-pipeline summary block of the unified run report. *)

(** {1 Mutable tallies}

    Updated directly by the pipeline. *)

val t_moves : t -> int

val t_null_moves : t -> int

val t_accepts : t -> int

val t_rejects : t -> int

val t_ripped_nets : t -> int

val t_retimed_nets : t -> int

val note_move : t -> unit

val note_null_move : t -> unit

val note_accept : t -> unit

val note_reject : t -> unit

val add_ripped : t -> int -> unit

val add_retimed : t -> int -> unit
