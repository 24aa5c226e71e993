module Nl = Spr_netlist.Netlist

type result = {
  side : bool array;
  cut_nets : int;
  passes : int;
}

(* Cells touching a net, with duplicates removed (a cell may be both the
   driver and a sink through different pins). *)
let net_cells nl net =
  let n = Nl.net nl net in
  List.sort_uniq compare
    (n.Nl.driver :: Array.to_list (Array.map fst n.Nl.sinks))

let cut_size nl side =
  let cut = ref 0 in
  for net = 0 to Nl.n_nets nl - 1 do
    let cells = net_cells nl net in
    let has_a = List.exists (fun c -> not side.(c)) cells in
    let has_b = List.exists (fun c -> side.(c)) cells in
    if has_a && has_b then incr cut
  done;
  !cut

(* One FM pass over mutable [side]; returns the gain of the best prefix
   (non-negative; 0 means the pass found nothing and [side] is left at
   the starting assignment). *)
let fm_pass nl ~nets_of_cell ~cells_of_net ~balance_lo ~balance_hi side =
  let n = Nl.n_cells nl in
  (* per net: cell count on each side *)
  let count_a = Array.make (Nl.n_nets nl) 0 in
  let count_b = Array.make (Nl.n_nets nl) 0 in
  Array.iteri
    (fun net cells ->
      List.iter (fun c -> if side.(c) then count_b.(net) <- count_b.(net) + 1
                 else count_a.(net) <- count_a.(net) + 1)
        cells)
    cells_of_net;
  let size_b = ref (Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 side) in
  let size_a = ref (n - !size_b) in
  (* FM gain of moving cell c off its current side *)
  let gain = Array.make n 0 in
  let compute_gain c =
    let g = ref 0 in
    List.iter
      (fun net ->
        let from_count = if side.(c) then count_b.(net) else count_a.(net) in
        let to_count = if side.(c) then count_a.(net) else count_b.(net) in
        if from_count = 1 then incr g;
        if to_count = 0 then decr g)
      nets_of_cell.(c);
    gain.(c) <- !g
  in
  for c = 0 to n - 1 do
    compute_gain c
  done;
  (* max-heap via min-Pqueue on negated gains, lazy deletion *)
  let heap = Spr_util.Pqueue.create () in
  let locked = Array.make n false in
  for c = 0 to n - 1 do
    Spr_util.Pqueue.add heap (-gain.(c)) c
  done;
  let balanced_move c =
    (* sizes after moving c *)
    if side.(c) then !size_b - 1 >= balance_lo && !size_a + 1 <= balance_hi
    else !size_a - 1 >= balance_lo && !size_b + 1 <= balance_hi
  in
  let apply_move c =
    let from_b = side.(c) in
    (* update neighbor gains per the standard FM delta rules, done by
       recomputation over the small neighborhood (nets are tiny) *)
    let neighbors = ref [] in
    List.iter
      (fun net ->
        List.iter (fun k -> if k <> c && not locked.(k) then neighbors := k :: !neighbors)
          cells_of_net.(net))
      nets_of_cell.(c);
    side.(c) <- not from_b;
    List.iter
      (fun net ->
        if from_b then begin
          count_b.(net) <- count_b.(net) - 1;
          count_a.(net) <- count_a.(net) + 1
        end
        else begin
          count_a.(net) <- count_a.(net) - 1;
          count_b.(net) <- count_b.(net) + 1
        end)
      nets_of_cell.(c);
    if from_b then begin
      decr size_b;
      incr size_a
    end
    else begin
      decr size_a;
      incr size_b
    end;
    List.iter
      (fun k ->
        compute_gain k;
        Spr_util.Pqueue.add heap (-gain.(k)) k)
      (List.sort_uniq compare !neighbors)
  in
  (* run the pass, recording the move sequence *)
  let moves = ref [] in
  let cum = ref 0 and best = ref 0 and best_idx = ref 0 and idx = ref 0 in
  let rec step () =
    match Spr_util.Pqueue.pop_min heap with
    | None -> ()
    | Some (neg_g, c) ->
      if locked.(c) || -neg_g <> gain.(c) then step ()  (* stale entry *)
      else if not (balanced_move c) then begin
        (* temporarily skip: push back with a worse key so another cell
           can be tried; to avoid infinite loops, lock it instead *)
        locked.(c) <- true;
        step ()
      end
      else begin
        locked.(c) <- true;
        cum := !cum + gain.(c);
        apply_move c;
        moves := c :: !moves;
        incr idx;
        if !cum > !best then begin
          best := !cum;
          best_idx := !idx
        end;
        step ()
      end
  in
  step ();
  (* revert moves after the best prefix *)
  let all_moves = List.rev !moves in
  List.iteri (fun i c -> if i >= !best_idx then side.(c) <- not side.(c)) all_moves;
  !best

(* FM passes run until one gains nothing, at most this many. *)
let max_passes = 12

let bipartition ?(balance = 0.10) ~rng nl =
  let n = Nl.n_cells nl in
  if n < 2 then { side = Array.make n false; cut_nets = 0; passes = 0 }
  else begin
    let cells_of_net = Array.init (Nl.n_nets nl) (fun net -> net_cells nl net) in
    let nets_of_cell = Array.init n (fun c -> Nl.nets_of_cell nl c) in
    let half = n / 2 in
    let slack = int_of_float (balance *. float_of_int n) in
    let balance_lo = max 1 (half - slack) and balance_hi = min (n - 1) (n - half + slack) in
    (* random balanced start *)
    let order = Array.init n Fun.id in
    Spr_util.Rng.shuffle_in_place rng order;
    let side = Array.make n false in
    for i = 0 to half - 1 do
      side.(order.(i)) <- true
    done;
    let passes = ref 0 in
    let improved = ref true in
    while !improved && !passes < max_passes do
      incr passes;
      let g = fm_pass nl ~nets_of_cell ~cells_of_net ~balance_lo ~balance_hi side in
      improved := g > 0
    done;
    { side; cut_nets = cut_size nl side; passes = !passes }
  end
