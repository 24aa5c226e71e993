module Predictor = struct
  type fit = { slope : float; intercept : float; sigma : float; n : int }

  let fit pts =
    let n = List.length pts in
    if n < 3 then None
    else begin
      let nf = float_of_int n in
      let sx = List.fold_left (fun a (x, _) -> a +. float_of_int x) 0.0 pts in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
      let mx = sx /. nf and my = sy /. nf in
      let sxx =
        List.fold_left
          (fun a (x, _) ->
            let d = float_of_int x -. mx in
            a +. (d *. d))
          0.0 pts
      in
      if sxx <= 0.0 then None
      else begin
        let sxy =
          List.fold_left (fun a (x, y) -> a +. ((float_of_int x -. mx) *. (y -. my))) 0.0 pts
        in
        let slope = sxy /. sxx in
        let intercept = my -. (slope *. mx) in
        let ss =
          List.fold_left
            (fun a (x, y) ->
              let r = y -. (intercept +. (slope *. float_of_int x)) in
              a +. (r *. r))
            0.0 pts
        in
        let sigma = sqrt (ss /. float_of_int (n - 2)) in
        Some { slope; intercept; sigma; n }
      end
    end

  let predict f ~at = f.intercept +. (f.slope *. float_of_int at)
end

type racing = { warmup : int; every : int; margin : float; horizon : int }

type policy = Exchange of Portfolio.exchange | Racing of racing

type kill = { k_replica : int; k_stream : int }

type round_record = {
  round : int;
  leader : int;
  metric : float;
  payload : string;
  kills : kill list;
}

type decision = Continue | Adopt of round_record | Kill of round_record * int

(* A replica blocked at a round, with the layout it brought along (any
   participant may turn out to be the leader). *)
type waiter = { w_replica : int; w_round : int; w_metric : float; w_payload : string }

type t = {
  replicas : int;
  policy : policy;
  persist : round_record -> unit;
  frozen : unit -> bool;
  m : Mutex.t;
  cv : Condition.t;
  mutable active : int;  (** replicas still annealing *)
  mutable waiters : waiter list;  (** replicas blocked at a round *)
  results : (int, round_record) Hashtbl.t;  (** tripped + replayed rounds *)
  mutable next_stream : int;  (** fresh-fork RNG stream allocator *)
  series : (int, (int * float * float) list) Hashtbl.t;
      (** replica -> (temp_index, metric, acceptance), newest first *)
  killed_at : (int, int) Hashtbl.t;
      (** replica -> round of its last kill; fits use only later samples *)
}

(* Fit window: recent samples only, where the cooling curve is locally
   linear — a whole-history fit would average the steep early descent
   into the tail's slope and never separate the replicas. *)
let fit_window = 16

(* A replica whose recent acceptance is still this high is mid-search:
   its metric is uninformative about terminal quality, so it can
   neither be killed nor trusted to predict. *)
let hot_acceptance = 0.5

let create ~replicas policy ?(history = []) ?(persist = fun _ -> ()) ?(frozen = fun () -> false)
    () =
  if replicas < 1 then invalid_arg "Scheduler.create: replicas must be >= 1";
  (match policy with
  | Exchange (Portfolio.Best_exchange n) when n < 1 ->
    invalid_arg "Scheduler.create: exchange period must be >= 1"
  | Racing r when r.every < 1 || r.warmup < 0 ->
    invalid_arg "Scheduler.create: racing every must be >= 1 and warmup >= 0"
  | Exchange _ | Racing _ -> ());
  let results = Hashtbl.create 16 in
  let killed_at = Hashtbl.create 8 in
  let next_stream = ref replicas in
  List.iter
    (fun r ->
      Hashtbl.replace results r.round r;
      List.iter
        (fun k ->
          if k.k_stream >= !next_stream then next_stream := k.k_stream + 1;
          match Hashtbl.find_opt killed_at k.k_replica with
          | Some s when s >= r.round -> ()
          | _ -> Hashtbl.replace killed_at k.k_replica r.round)
        r.kills)
    history;
  {
    replicas;
    policy;
    persist;
    frozen;
    m = Mutex.create ();
    cv = Condition.create ();
    active = replicas;
    waiters = [];
    results;
    next_stream = !next_stream;
    series = Hashtbl.create 8;
    killed_at;
  }

(* A lone replica has nobody to meet, so it never reaches a round. *)
let round_of t ~temp_index =
  let due ~after ~every =
    if temp_index > after && temp_index mod every = 0 then Some (temp_index / every) else None
  in
  if t.replicas < 2 then None
  else
    match t.policy with
    | Exchange Portfolio.Independent -> None
    | Exchange (Portfolio.Best_exchange n) -> due ~after:0 ~every:n
    | Racing r -> due ~after:r.warmup ~every:r.every

(* Exchange rounds are always recorded: which replicas adopt depends on
   each one's own metric, so a resumed fleet must meet the leader the
   live fleet met. A racing round without kills has no verdict. *)
let recorded t r = match t.policy with Exchange _ -> true | Racing _ -> r.kills <> []

(* --- per-replica series (caller holds [t.m]) --- *)

let push_sample t ~replica ~temp_index ~metric ~acceptance =
  let prev = Option.value (Hashtbl.find_opt t.series replica) ~default:[] in
  Hashtbl.replace t.series replica ((temp_index, metric, acceptance) :: prev)

let post_kill_samples t rc replica =
  let start =
    match Hashtbl.find_opt t.killed_at replica with Some round -> round * rc.every | None -> 0
  in
  let all = Option.value (Hashtbl.find_opt t.series replica) ~default:[] in
  let rec take k = function
    | (ti, _, _) :: _ when ti <= start -> []
    | s :: rest when k > 0 -> s :: take (k - 1) rest
    | _ -> []
  in
  take fit_window all

let fit_for t rc replica =
  Predictor.fit (List.map (fun (ti, m, _) -> (ti, m)) (post_kill_samples t rc replica))

let is_hot t rc replica =
  match post_kill_samples t rc replica with
  | [] -> true
  | recent ->
    let rec take k = function s :: rest when k > 0 -> s :: take (k - 1) rest | _ -> [] in
    let last3 = take 3 recent in
    let sum = List.fold_left (fun a (_, _, acc) -> a +. acc) 0.0 last3 in
    sum /. float_of_int (List.length last3) > hot_acceptance

(* --- verdicts ---
   Serving a kill verdict (live or replayed) restarts the replica's
   predictor series at the round boundary, so later fits describe the
   fork, not the abandoned trajectory. Caller holds [t.m]. *)

let verdict t r ~replica ~metric =
  match List.find_opt (fun k -> k.k_replica = replica) r.kills with
  | Some k ->
    Hashtbl.replace t.killed_at replica r.round;
    Kill (r, k.k_stream)
  | None -> (
    match t.policy with
    | Exchange _ when r.leader <> replica && r.metric < metric -> Adopt r
    | Exchange _ | Racing _ -> Continue)

(* --- decisions ---
   [participants] arrive sorted by replica index, so the lowest index
   wins every tie. *)

let best_by f = function
  | [] -> None
  | x :: rest -> Some (List.fold_left (fun acc y -> if f y < f acc then y else acc) x rest)

let decide_racing t rc ~round participants =
  let at = (round * rc.every) + rc.horizon in
  let fitted = List.map (fun w -> (w, fit_for t rc w.w_replica)) participants in
  let leader_w, leader_fit =
    match
      best_by
        (fun (_, fit) ->
          match fit with Some f -> Predictor.predict f ~at | None -> infinity)
        (List.filter (fun (_, fit) -> fit <> None) fitted)
    with
    | Some (w, fit) -> (w, fit)
    | None -> (Option.get (best_by (fun (w : waiter) -> w.w_metric) participants), None)
  in
  let kills =
    match leader_fit with
    | None -> []
    | Some lf ->
      let lpred = Predictor.predict lf ~at in
      List.filter_map
        (fun (w, fit) ->
          match fit with
          | Some f
            when w.w_replica <> leader_w.w_replica
                 && (not (is_hot t rc w.w_replica))
                 && Predictor.predict f ~at -. lpred > rc.margin +. f.sigma +. lf.sigma ->
            let stream = t.next_stream in
            t.next_stream <- stream + 1;
            Some { k_replica = w.w_replica; k_stream = stream }
          | _ -> None)
        fitted
  in
  (leader_w, kills)

let decide t ~round participants =
  let leader, kills =
    match t.policy with
    | Exchange _ -> (Option.get (best_by (fun w -> w.w_metric) participants), [])
    | Racing rc -> decide_racing t rc ~round participants
  in
  { round; leader = leader.w_replica; metric = leader.w_metric; payload = leader.w_payload; kills }

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
    let r = decide t ~round participants in
    (* Persist before releasing anyone: a crash after this point must
       replay the very round the survivors acted on. *)
    if recorded t r then t.persist r;
    Hashtbl.replace t.results round r;
    t.waiters <- List.filter (fun w -> w.w_round <> round) t.waiters;
    Condition.broadcast t.cv
  end

let observe t ~replica ~temp_index ~metric ~acceptance ~capture =
  Mutex.lock t.m;
  push_sample t ~replica ~temp_index ~metric ~acceptance;
  let serve r =
    let d = verdict t r ~replica ~metric in
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

let preload t ~replica samples =
  Mutex.lock t.m;
  List.iter
    (fun (temp_index, metric, acceptance) ->
      push_sample t ~replica ~temp_index ~metric ~acceptance)
    samples;
  Mutex.unlock t.m

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
  let rs = Hashtbl.fold (fun _ r acc -> if recorded t r then r :: acc else acc) t.results [] in
  Mutex.unlock t.m;
  List.sort (fun a b -> compare a.round b.round) rs
