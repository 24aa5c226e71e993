type round_record = { round : int; leader : int; metric : float; payload : string }

type decision = Continue | Adopt of round_record

(* A replica blocked at a round, with the layout it brought along (any
   participant may turn out to be the leader). *)
type waiter = { w_replica : int; w_round : int; w_metric : float; w_payload : string }

type t = {
  replicas : int;
  exchange : Portfolio.exchange;
  persist : round_record -> unit;
  frozen : unit -> bool;
  m : Mutex.t;
  cv : Condition.t;
  mutable active : int;  (** replicas still annealing *)
  mutable waiters : waiter list;  (** replicas blocked at a round *)
  results : (int, round_record) Hashtbl.t;  (** tripped + replayed rounds *)
}

let create ~replicas exchange ?(history = []) ?(persist = fun _ -> ()) ?(frozen = fun () -> false)
    () =
  if replicas < 1 then invalid_arg "Scheduler.create: replicas must be >= 1";
  (match exchange with
  | Portfolio.Best_exchange n when n < 1 ->
    invalid_arg "Scheduler.create: exchange period must be >= 1"
  | Portfolio.Best_exchange _ | Portfolio.Independent -> ());
  let results = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace results r.round r) history;
  {
    replicas;
    exchange;
    persist;
    frozen;
    m = Mutex.create ();
    cv = Condition.create ();
    active = replicas;
    waiters = [];
    results;
  }

(* A lone replica has nobody to meet, so it never reaches a round. *)
let round_of t ~temp_index =
  match t.exchange with
  | Portfolio.Best_exchange n when t.replicas > 1 && temp_index > 0 && temp_index mod n = 0 ->
    Some (temp_index / n)
  | Portfolio.Best_exchange _ | Portfolio.Independent -> None

(* Every strictly worse replica adopts the leader's layout. Which
   replicas adopt depends on each one's own metric, so a resumed fleet
   must meet the leader the live fleet met: every round is recorded. *)
let verdict r ~replica ~metric =
  if r.leader <> replica && r.metric < metric then Adopt r else Continue

(* [participants] arrive sorted by replica index, so the lowest index
   wins every tie. *)
let decide ~round participants =
  let leader =
    List.fold_left
      (fun acc w -> if w.w_metric < acc.w_metric then w else acc)
      (List.hd participants) participants
  in
  { round; leader = leader.w_replica; metric = leader.w_metric; payload = leader.w_payload }

(* --- the rendezvous ---
   Trip the lowest pending round once every active replica is
   accounted for, so a round's participant set — and therefore its
   decision — is a deterministic function of the replica trajectories,
   independent of domain scheduling. Caller holds [t.m]. When frozen,
   never trip: just wake everyone so they can bail out. *)

let try_trip t =
  if t.frozen () then Condition.broadcast t.cv
  else if t.waiters <> [] && List.length t.waiters >= t.active then begin
    let round = List.fold_left (fun acc w -> min acc w.w_round) max_int t.waiters in
    let participants =
      List.filter (fun w -> w.w_round = round) t.waiters
      |> List.sort (fun a b -> compare a.w_replica b.w_replica)
    in
    let r = decide ~round participants in
    (* Persist before releasing anyone: a crash after this point must
       replay the very round the survivors acted on. *)
    t.persist r;
    Hashtbl.replace t.results round r;
    t.waiters <- List.filter (fun w -> w.w_round <> round) t.waiters;
    Condition.broadcast t.cv
  end

let observe t ~replica ~temp_index ~metric ~capture =
  Mutex.lock t.m;
  let serve r =
    let d = verdict r ~replica ~metric in
    Mutex.unlock t.m;
    d
  in
  match round_of t ~temp_index with
  | None ->
    Mutex.unlock t.m;
    Continue
  | Some round -> (
    match Hashtbl.find_opt t.results round with
    | Some r ->
      (* Replayed (resume) or already-tripped round: serve directly. *)
      serve r
    | None ->
      if t.frozen () then begin
        Mutex.unlock t.m;
        Continue
      end
      else begin
        (* Capture outside the lock — serialisation is the expensive
           part and needs no coordination. *)
        Mutex.unlock t.m;
        let payload = capture () in
        Mutex.lock t.m;
        match Hashtbl.find_opt t.results round with
        | Some r -> serve r
        | None ->
          t.waiters <-
            { w_replica = replica; w_round = round; w_metric = metric; w_payload = payload }
            :: t.waiters;
          try_trip t;
          let rec wait () =
            match Hashtbl.find_opt t.results round with
            | Some r -> serve r
            | None ->
              if t.frozen () then begin
                t.waiters <- List.filter (fun w -> w.w_replica <> replica) t.waiters;
                Condition.broadcast t.cv;
                Mutex.unlock t.m;
                Continue
              end
              else begin
                Condition.wait t.cv t.m;
                wait ()
              end
          in
          wait ()
      end)

let finished t ~replica =
  ignore replica;
  Mutex.lock t.m;
  t.active <- t.active - 1;
  try_trip t;
  (* Wake waiters even when nothing tripped: with one fewer active
     replica the frozen check (and future trips) must re-run. *)
  Condition.broadcast t.cv;
  Mutex.unlock t.m

let rounds t =
  Mutex.lock t.m;
  let rs = Hashtbl.fold (fun _ r acc -> r :: acc) t.results [] in
  Mutex.unlock t.m;
  List.sort (fun a b -> compare a.round b.round) rs
