(** The fleet scheduler: the one rendezvous that coordinates the
    replicas of a multi-replica anneal at temperature boundaries.

    Each replica reports a sample of its annealing dynamics at every
    temperature boundary ({!observe}). When a round is due, the replica
    blocks until every replica still annealing has arrived (or
    finished); the round then trips once, under the scheduler lock, and
    its {!round_record} is persisted before any replica is released.
    Two decision policies share that rendezvous:

    - {b exchange} ([Exchange (Best_exchange n)], every [n] boundaries):
      the leader is the participant with the lowest metric (lowest
      index on ties) and every strictly worse replica adopts its
      layout. [Exchange Independent] never meets.
    - {b racing}: a cheap online predictor ({!Predictor}) is fitted on
      each replica's recent dynamics (weight-independent metric trend
      plus acceptance trajectory); replicas whose predicted terminal
      quality trails the predicted leader by a confidence margin are
      killed. A killed replica's domain is reallocated at once: it
      adopts the leader's captured layout and continues on a fresh RNG
      stream (a clone-and-perturb fork).

    {2 Determinism contract}

    Samples carry only masked-trace-derivable quantities (temperature
    index, the weight-independent best metric, acceptance ratio), and a
    round's participant set is every replica still active, so each
    decision is a deterministic function of the replica trajectories,
    independent of domain scheduling. Exchange rounds are always
    recorded and racing rounds whenever they kill; on resume, recorded
    rounds replay their verdicts without a rendezvous and unrecorded
    rounds re-trip live. Once [frozen] (a fleet stop) no round trips or
    persists, so every recorded round had full live participation. *)

(** Online linear predictor over a replica's dynamics series. *)
module Predictor : sig
  type fit = {
    slope : float;  (** metric change per temperature boundary *)
    intercept : float;
    sigma : float;  (** residual standard deviation (confidence) *)
    n : int;  (** points fitted *)
  }

  val fit : (int * float) list -> fit option
  (** Ordinary least squares of metric against temperature index.
      Needs at least three points with distinct indices; returns
      [None] otherwise. *)

  val predict : fit -> at:int -> float
  (** Extrapolated metric at temperature boundary [at]. *)
end

type racing = {
  warmup : int;  (** boundaries before the first decision round *)
  every : int;  (** decision round period, in temperature boundaries *)
  margin : float;
      (** kill margin, in metric units: a replica is killed when its
          predicted metric trails the leader's by more than
          [margin + sigma_replica + sigma_leader] *)
  horizon : int;  (** prediction lookahead, in boundaries *)
}

type policy =
  | Exchange of Portfolio.exchange
      (** adopt the lowest-metric leader at every exchange round *)
  | Racing of racing  (** kill replicas the predictor says trail *)

type kill = { k_replica : int; k_stream : int }
(** One early-kill verdict: replica [k_replica] abandons its
    trajectory and forks the round leader on RNG stream [k_stream]. *)

type round_record = {
  round : int;  (** 1-based round index *)
  leader : int;  (** the round's leader (lowest index on ties) *)
  metric : float;  (** leader's live metric at the round *)
  payload : string;  (** leader's captured layout *)
  kills : kill list;  (** ascending replica order; [[]] for exchange rounds *)
}
(** Outcome of one tripped round, exactly as persisted. *)

type decision =
  | Continue  (** no intervention; keep annealing *)
  | Adopt of round_record
      (** exchange: the leader is strictly better — adopt its layout
          and continue on the same RNG stream *)
  | Kill of round_record * int
      (** racing early-kill: abandon this trajectory, adopt the
          leader's layout and reseed onto the given fresh RNG stream *)

type t

val create :
  replicas:int ->
  policy ->
  ?history:round_record list ->
  ?persist:(round_record -> unit) ->
  ?frozen:(unit -> bool) ->
  unit ->
  t
(** A scheduler for [replicas] replica workers. [history] replays
    previously recorded rounds (resume): a replica arriving at a
    recorded round is served its verdict immediately, the stream
    allocator continues past every recorded stream, and each killed
    replica's predictor series restarts at its recorded kill round.
    [persist] is called once per freshly tripped round that
    {!rounds} reports, under the scheduler lock, before any waiter is
    released — write the record durably there. [frozen] is polled to
    freeze coordination on a fleet stop: once it returns [true], no new
    round trips or persists and every waiter is released with
    [Continue]. *)

val round_of : t -> temp_index:int -> int option
(** The round due at this temperature boundary, if any.
    [Best_exchange n] meets at boundaries [n, 2n, ...]; racing at
    multiples of [every] past [warmup]. A one-replica scheduler and
    [Independent] never meet. *)

val observe :
  t ->
  replica:int ->
  temp_index:int ->
  metric:float ->
  acceptance:float ->
  capture:(unit -> string) ->
  decision
(** Called by [replica] at every temperature boundary with its
    weight-independent best [metric] and the batch acceptance ratio.
    Appends the sample to the replica's series, then — when a round is
    due — blocks until it trips (or the scheduler freezes). [capture]
    serialises this replica's layout, invoked at most once, outside
    the scheduler lock. *)

val preload : t -> replica:int -> (int * float * float) list -> unit
(** [preload t ~replica samples] seeds the replica's dynamics series
    from restored checkpoint samples ([(temp_index, metric,
    acceptance)], oldest first) so that a resumed run fits exactly the
    series the uninterrupted run would have. *)

val finished : t -> replica:int -> unit
(** Deregister a replica that has stopped annealing (normally or on
    interrupt). Must be called exactly once per replica — pending
    rounds re-evaluate without it, so forgetting this deadlocks the
    remaining waiters. *)

val rounds : t -> round_record list
(** The recorded rounds (tripped and replayed), ascending: every
    exchange round, and every racing round that killed. Exactly the
    set [persist] sees, so a resumed fleet reports the same list. *)
