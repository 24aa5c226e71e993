(** The exchange policy vocabulary and the domain fan-out of a
    multi-replica anneal. The rendezvous that coordinates replicas at
    temperature boundaries lives in {!Scheduler}. *)

type exchange =
  | Independent  (** replicas never communicate; pure best-of-K *)
  | Best_exchange of int
      (** every [n] temperature boundaries, replicas synchronise and
          any replica strictly worse than the fleet best adopts the
          best replica's layout *)

val exchange_to_string : exchange -> string
(** ["independent"] or ["best:<n>"] — the CLI / run-spec spelling. *)

val exchange_of_string : string -> (exchange, string) result
(** Inverse of {!exchange_to_string}. *)

val run_replicas : replicas:int -> (int -> 'a) -> ('a, exn) result array
(** [run_replicas ~replicas f] runs [f 0 .. f (replicas-1)]
    concurrently — replica 0 on the calling domain, the rest on
    spawned domains — and returns their outcomes indexed by replica.
    An exception escaping [f k] is captured as [Error exn] for that
    slot; the other replicas still run to completion. *)
