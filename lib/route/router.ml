type config = {
  spine_margin : int;
  spine_candidates : int;
  antifuse_weight : float;
  retry_cap : int;
  criticality : (int -> float) option;
}

let default_config =
  {
    spine_margin = 2;
    spine_candidates = 24;
    antifuse_weight = 3.0;
    retry_cap = 64;
    criticality = None;
  }

module Metrics = Spr_obs.Metrics

type counters = {
  global_attempts : Metrics.counter;
  global_routed : Metrics.counter;
  detail_attempts : Metrics.counter;
  detail_routed : Metrics.counter;
}

(* Detail first: a registry dumps its cells in registration order, and
   the golden traces pin that order. *)
let counters reg =
  let detail_routed = Metrics.counter reg "router.detail.routed" in
  let detail_attempts = Metrics.counter reg "router.detail.attempts" in
  let global_routed = Metrics.counter reg "router.global.routed" in
  let global_attempts = Metrics.counter reg "router.global.attempts" in
  { global_attempts; global_routed; detail_attempts; detail_routed }

let tally counters cell = match counters with Some c -> Metrics.incr (cell c) | None -> ()

(* Criticality ordering: (criticality, estimated length) descending, net
   id as the deterministic tie-break. The length-only order needs no
   sorting — the dense queues already enumerate that way. *)
let sort_queue config keyed =
  match config.criticality with
  | None ->
    List.sort (fun ((a : int), na) (b, nb) -> compare (b, nb) (a, na)) keyed
  | Some crit ->
    let scored = List.map (fun (len, net) -> (crit net, len, net)) keyed in
    List.map
      (fun (_, len, net) -> (len, net))
      (List.sort (fun (ca, la, na) (cb, lb, nb) -> compare (cb, lb, nb) (ca, la, na)) scored)

let rip_up_cell st j cell =
  let nl = Route_state.netlist st in
  let nets = Spr_netlist.Netlist.nets_of_cell nl cell in
  List.iter (fun net -> Route_state.rip_up st j net) nets;
  nets

let take n xs =
  let rec loop acc n = function
    | [] -> List.rev acc
    | _ when n = 0 -> List.rev acc
    | x :: rest -> loop (x :: acc) (n - 1) rest
  in
  loop [] n xs

(* Re-impose the criticality order when configured; the queues arrive in
   the paper's length order otherwise. *)
let criticality_order config ~len queue =
  match config.criticality with
  | None -> queue
  | Some _ -> List.map snd (sort_queue config (List.map (fun net -> (len net, net)) queue))

(* The two queue snapshots below fix which nets a pass attempts and in
   which order: the queue filtered by the failure memo, re-ordered by
   criticality when configured, truncated to [retry_cap]. *)

let ordered_global_queue config st =
  let place = Route_state.place st in
  (* U_G arrives "sorted based on the estimated length of its contents
     ... giving priority to the longer unroutable nets" (paper §3.3). *)
  let queue =
    List.filter (fun net -> Route_state.global_attempt_pending st net) (Route_state.u_g st)
  in
  let queue =
    criticality_order config ~len:(fun net -> Spr_layout.Placement.half_perimeter place net)
      queue
  in
  take config.retry_cap queue

let detail_demand_length st ~channel net =
  match List.assoc_opt channel (Route_state.h_demands st net) with
  | Some span -> Spr_util.Interval.length span
  | None -> 0

let ordered_detail_queue config st ~channel =
  let queue =
    List.filter
      (fun net ->
        Route_state.detail_attempt_pending st net ~channel
        && List.mem_assoc channel (Route_state.h_demands st net))
      (Route_state.u_d st channel)
  in
  let queue = criticality_order config ~len:(detail_demand_length st ~channel) queue in
  take config.retry_cap queue

let reroute_global ?(config = default_config) ?counters st j =
  let changed = ref [] in
  List.iter
    (fun net ->
      tally counters (fun c -> c.global_attempts);
      if
        Global_router.attempt ~margin:config.spine_margin
          ~max_candidates:config.spine_candidates st j net
      then begin
        tally counters (fun c -> c.global_routed);
        changed := net :: !changed
      end
      else Route_state.note_global_failure st net)
    (ordered_global_queue config st);
  List.sort_uniq compare !changed

let reroute_detail ?(config = default_config) ?counters st j =
  let arch = Route_state.arch st in
  let changed = ref [] in
  (* Each channel's queue, longest span first. *)
  for channel = 0 to arch.Spr_arch.Arch.n_channels - 1 do
    List.iter
      (fun net ->
        tally counters (fun c -> c.detail_attempts);
        if Detail_router.attempt ~antifuse_weight:config.antifuse_weight st j ~net ~channel
        then begin
          tally counters (fun c -> c.detail_routed);
          changed := net :: !changed
        end
        else Route_state.note_detail_failure st net ~channel)
      (ordered_detail_queue config st ~channel)
  done;
  List.sort_uniq compare !changed

let reroute ?(config = default_config) ?counters st j =
  let g = reroute_global ~config ?counters st j in
  let d = reroute_detail ~config ?counters st j in
  List.sort_uniq compare (List.rev_append g d)

let route_all ?(config = default_config) ?(passes = 3) st =
  let config = { config with retry_cap = max_int } in
  let j = Spr_util.Journal.create () in
  let rec loop p =
    if p > 0 && not (Route_state.fully_routed st) then begin
      ignore (reroute ~config st j : int list);
      loop (p - 1)
    end
  in
  loop passes;
  Spr_util.Journal.commit j
