(** The fleet scheduler: the one rendezvous that coordinates the
    replicas of a multi-replica anneal at temperature boundaries.

    Each replica reports its weight-independent best metric at every
    temperature boundary ({!observe}). Under [Best_exchange n] a round
    is due every [n] boundaries: the replica blocks until every replica
    still annealing has arrived (or finished); the round then trips
    once, under the scheduler lock, and its {!round_record} is
    persisted before any replica is released. The leader is the
    participant with the lowest metric (lowest index on ties) and every
    strictly worse replica adopts its layout. [Independent] never
    meets.

    {2 Determinism contract}

    The metric is a masked-trace-derivable quantity, and a round's
    participant set is every replica still active, so each decision is
    a deterministic function of the replica trajectories, independent
    of domain scheduling. Every round is recorded; on resume, recorded
    rounds replay their verdicts without a rendezvous. Once [frozen] (a
    fleet stop) no round trips or persists, so every recorded round had
    full live participation. *)

type round_record = {
  round : int;  (** 1-based round index *)
  leader : int;  (** the round's leader (lowest index on ties) *)
  metric : float;  (** leader's live metric at the round *)
  payload : string;  (** leader's captured layout *)
}
(** Outcome of one tripped round, exactly as persisted. *)

type decision =
  | Continue  (** no intervention; keep annealing *)
  | Adopt of round_record
      (** the leader is strictly better: adopt its layout and continue
          on the same RNG stream *)

type t

val create :
  replicas:int ->
  Portfolio.exchange ->
  ?history:round_record list ->
  ?persist:(round_record -> unit) ->
  ?frozen:(unit -> bool) ->
  unit ->
  t
(** A scheduler for [replicas] replica workers. [history] replays
    previously recorded rounds (resume): a replica arriving at a
    recorded round is served its verdict immediately. [persist] is
    called once per freshly tripped round, under the scheduler lock,
    before any waiter is released — write the record durably there.
    [frozen] is polled to freeze coordination on a fleet stop: once it
    returns [true], no new round trips or persists and every waiter is
    released with [Continue]. *)

val round_of : t -> temp_index:int -> int option
(** The round due at this temperature boundary, if any.
    [Best_exchange n] meets at boundaries [n, 2n, ...]. A one-replica
    scheduler and [Independent] never meet. *)

val observe :
  t -> replica:int -> temp_index:int -> metric:float -> capture:(unit -> string) -> decision
(** Called by [replica] at every temperature boundary with its
    weight-independent best [metric]. When a round is due, blocks until
    it trips (or the scheduler freezes). [capture] serialises this
    replica's layout, invoked at most once, outside the scheduler
    lock. *)

val finished : t -> replica:int -> unit
(** Deregister a replica that has stopped annealing (normally or on
    interrupt). Must be called exactly once per replica — pending
    rounds re-evaluate without it, so forgetting this deadlocks the
    remaining waiters. *)

val rounds : t -> round_record list
(** The recorded rounds (tripped and replayed), ascending: exactly the
    set [persist] sees, so a resumed fleet reports the same list. *)
