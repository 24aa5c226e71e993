(** Incremental rip-up-and-reroute pass (paper §3.3-3.4).

    After every placement or pinmap perturbation the nets attached to the
    perturbed cells are ripped up and queued. One {!reroute} pass then
    works down U{_G} in decreasing estimated-length order giving each net
    a spine, and then sweeps the channels giving every queued net in each
    U{_D,R} a track run, longest first. Nets the heuristics cannot place
    stay queued and are retried after subsequent moves. *)

type config = {
  spine_margin : int;  (** Columns the spine may sit outside the pin bbox. *)
  spine_candidates : int;  (** Bound on spine columns probed per attempt. *)
  antifuse_weight : float;  (** Detailed-route cost per segment used. *)
  retry_cap : int;
      (** Upper bound on queued nets attempted per pass and per queue; keeps
          the per-move cost bounded when the design is badly unroutable.
          Ripped nets of the current move always fit under the cap in
          practice since the queues are sorted longest-first. *)
  criticality : (int -> float) option;
      (** When set, queues order by (criticality, estimated length)
          descending instead of length alone — the "prioritize critical
          nets" behaviour of the routers the paper builds on ([8], [11]).
          The callback must be cheap; the simultaneous tool passes the
          net driver's current arrival time. *)
}

val default_config : config

type counters = {
  global_attempts : Spr_obs.Metrics.counter;
  global_routed : Spr_obs.Metrics.counter;
  detail_attempts : Spr_obs.Metrics.counter;
  detail_routed : Spr_obs.Metrics.counter;
}
(** Per-phase attempt/success tallies: registry cells the routers
    increment directly, accumulated across every pass the record is
    threaded through (the move pipeline's profile does exactly that). *)

val counters : Spr_obs.Metrics.t -> counters
(** Get-or-create the four cells [router.{global,detail}.{attempts,routed}]
    in the registry. *)

val rip_up_cell : Route_state.t -> Spr_util.Journal.t -> int -> int list
(** Rip up and queue every net attached to the cell; returns the ripped
    net ids (the timing analyzer must re-estimate their delays). *)

val reroute_global :
  ?config:config -> ?counters:counters -> Route_state.t -> Spr_util.Journal.t -> int list
(** The global sub-phase alone: work down U{_G} in its explicit retry
    order (estimated length descending; criticality order when
    configured) giving each net a spine. Returns the nets that gained a
    global route. *)

val reroute_detail :
  ?config:config -> ?counters:counters -> Route_state.t -> Spr_util.Journal.t -> int list
(** The detailed sub-phase alone: sweep the channels giving every
    queued net in each U{_D,R} a track run, longest span first. Run
    after {!reroute_global} so demands queued by fresh spines are
    attempted in the same pass. *)

val reroute :
  ?config:config -> ?counters:counters -> Route_state.t -> Spr_util.Journal.t -> int list
(** {!reroute_global} followed by {!reroute_detail}. Returns the union
    of nets whose embedding changed (gained a spine or a track run) so
    the timing analyzer can update them. *)

val route_all : ?config:config -> ?passes:int -> Route_state.t -> unit
(** From-scratch routing: repeated {!reroute} passes (default 3) with no
    retry cap, committing the work; used by the sequential baseline and
    by tests. Does not rip anything up first — call it on a fresh state
    or after explicit rip-ups. *)
