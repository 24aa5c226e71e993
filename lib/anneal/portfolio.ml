type exchange = Independent | Best_exchange of int

let exchange_to_string = function
  | Independent -> "independent"
  | Best_exchange n -> Printf.sprintf "best:%d" n

let exchange_of_string s =
  match s with
  | "independent" -> Ok Independent
  | _ -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "best" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt rest with
      | Some n when n >= 1 -> Ok (Best_exchange n)
      | _ -> Error (Printf.sprintf "bad exchange period %S (want a positive integer)" rest))
    | _ -> Error (Printf.sprintf "unknown exchange policy %S (want independent or best:N)" s))

type round_result = {
  xr_round : int;
  xr_best_replica : int;
  xr_best_metric : float;
  xr_payload : string;
}

(* A replica blocked at a round, with the layout it brought along. *)
type waiter = { w_replica : int; w_round : int; w_metric : float; w_payload : string }

type t = {
  x : exchange;
  frozen : unit -> bool;
  persist : round_result -> unit;
  m : Mutex.t;
  cv : Condition.t;
  mutable active : int;  (** replicas still annealing *)
  mutable waiters : waiter list;  (** replicas blocked at a round *)
  results : (int, round_result) Hashtbl.t;  (** tripped + replayed rounds *)
}

let create ~replicas ~exchange ?(history = []) ?(persist = fun _ -> ()) ?(frozen = fun () -> false)
    () =
  if replicas < 1 then invalid_arg "Portfolio.create: replicas must be >= 1";
  let results = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace results r.xr_round r) history;
  { x = exchange; frozen; persist; m = Mutex.create (); cv = Condition.create ();
    active = replicas; waiters = []; results }

let round_of t ~temp_index =
  match t.x with
  | Independent -> None
  | Best_exchange n -> if temp_index > 0 && temp_index mod n = 0 then Some (temp_index / n) else None

(* Trip the lowest pending round once every active replica is
   accounted for. Caller holds [t.m]. When frozen, never trip — just
   wake everyone so they can bail out. *)
let try_trip t =
  if t.frozen () then Condition.broadcast t.cv
  else if t.waiters <> [] && List.length t.waiters >= t.active then begin
    let round = List.fold_left (fun acc w -> min acc w.w_round) max_int t.waiters in
    let participants = List.filter (fun w -> w.w_round = round) t.waiters in
    let best =
      List.fold_left
        (fun acc w ->
          if
            w.w_metric < acc.w_metric
            || (w.w_metric = acc.w_metric && w.w_replica < acc.w_replica)
          then w
          else acc)
        (List.hd participants) participants
    in
    let result =
      { xr_round = round; xr_best_replica = best.w_replica; xr_best_metric = best.w_metric;
        xr_payload = best.w_payload }
    in
    (* Persist before releasing anyone: a crash after this point must
       replay the very round the survivors acted on. *)
    t.persist result;
    Hashtbl.replace t.results round result;
    t.waiters <- List.filter (fun w -> w.w_round <> round) t.waiters;
    Condition.broadcast t.cv
  end

let sync t ~replica ~temp_index ~metric ~capture =
  match round_of t ~temp_index with
  | None -> None
  | Some round ->
    let adopt r =
      if r.xr_best_replica <> replica && r.xr_best_metric < metric then Some r else None
    in
    Mutex.lock t.m;
    (match Hashtbl.find_opt t.results round with
    | Some r ->
      (* Replayed (resume) or already-tripped round: serve directly. *)
      Mutex.unlock t.m;
      adopt r
    | None ->
      if t.frozen () then begin
        Mutex.unlock t.m;
        None
      end
      else begin
        (* Capture the layout outside the lock — serialisation is the
           expensive part and needs no coordination. *)
        Mutex.unlock t.m;
        let payload = capture () in
        Mutex.lock t.m;
        match Hashtbl.find_opt t.results round with
        | Some r ->
          Mutex.unlock t.m;
          adopt r
        | None ->
          t.waiters <-
            { w_replica = replica; w_round = round; w_metric = metric; w_payload = payload }
            :: t.waiters;
          try_trip t;
          let rec wait () =
            match Hashtbl.find_opt t.results round with
            | Some r ->
              Mutex.unlock t.m;
              adopt r
            | None ->
              if t.frozen () then begin
                t.waiters <- List.filter (fun w -> w.w_replica <> replica) t.waiters;
                Condition.broadcast t.cv;
                Mutex.unlock t.m;
                None
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

let history t =
  Mutex.lock t.m;
  let rs = Hashtbl.fold (fun _ r acc -> r :: acc) t.results [] in
  Mutex.unlock t.m;
  List.sort (fun a b -> compare a.xr_round b.xr_round) rs

let run_replicas ~replicas f =
  if replicas < 1 then invalid_arg "Portfolio.run_replicas: replicas must be >= 1";
  let guard k = try Ok (f k) with e -> Error e in
  if replicas = 1 then [| guard 0 |]
  else begin
    let spawned =
      Array.init (replicas - 1) (fun i -> Domain.spawn (fun () -> guard (i + 1)))
    in
    let first = guard 0 in
    Array.append [| first |] (Array.map Domain.join spawned)
  end
