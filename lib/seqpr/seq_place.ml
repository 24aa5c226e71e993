module P = Spr_layout.Placement

(* Cost of one channel of vertical span, in column units; weight of the
   congestion penalty; fraction of [tracks * cols] of a channel usable
   before the penalty engages; attempts to find a legal swap per
   move. *)
let vertical_weight = 2.0

let congestion_weight = 0.02

let channel_fill = 0.55

let max_swap_tries = 8

(* Net contribution caches so a move only touches the nets on the two
   perturbed cells. *)
type state = {
  place : P.t;
  nl : Spr_netlist.Netlist.t;
  hpwl : float array;  (* per net: x-span + vw * channel-span *)
  chan_demand : float array;  (* per channel: column-units demanded *)
  chan_of_net : (int * float) list array;  (* per net: (channel, span length) *)
  capacity : float;
  mutable total_hpwl : float;
  mutable cong_penalty : float;
  (* undo record of the pending move *)
  mutable undo : (unit -> unit) option;
}

let overflow_penalty capacity demand =
  let over = demand -. capacity in
  if over <= 0.0 then 0.0 else over *. over

let net_spans place net =
  match P.net_col_span place net, P.net_channel_span place net with
  | Some (xlo, xhi), Some (clo, chi) -> Some (xlo, xhi, clo, chi)
  | _, _ -> None

(* Per-channel demand of one net: each channel holding pins is charged
   the net's column span there (plus slack for the feedthrough). *)
let channel_loads place net =
  let pins = P.net_pin_positions place net in
  if List.length pins < 2 then []
  else begin
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun (ch, col) ->
        match Hashtbl.find_opt tbl ch with
        | None -> Hashtbl.replace tbl ch (col, col)
        | Some (lo, hi) -> Hashtbl.replace tbl ch (min lo col, max hi col))
      pins;
    Hashtbl.fold (fun ch (lo, hi) acc -> (ch, float_of_int (hi - lo + 1)) :: acc) tbl []
  end

let net_hpwl place net =
  match net_spans place net with
  | None -> 0.0
  | Some (xlo, xhi, clo, chi) ->
    float_of_int (xhi - xlo) +. (vertical_weight *. float_of_int (chi - clo))

let apply_net_update s net =
  let old_h = s.hpwl.(net) in
  let fresh_h = net_hpwl s.place net in
  s.total_hpwl <- s.total_hpwl -. old_h +. fresh_h;
  s.hpwl.(net) <- fresh_h;
  let old_loads = s.chan_of_net.(net) in
  let fresh_loads = channel_loads s.place net in
  let adjust (ch, len) sign =
    let before = s.chan_demand.(ch) in
    let after = before +. (sign *. len) in
    s.chan_demand.(ch) <- after;
    s.cong_penalty <-
      s.cong_penalty -. overflow_penalty s.capacity before +. overflow_penalty s.capacity after
  in
  List.iter (fun load -> adjust load (-1.0)) old_loads;
  List.iter (fun load -> adjust load 1.0) fresh_loads;
  s.chan_of_net.(net) <- fresh_loads;
  (old_h, old_loads)

let create place =
  let nl = P.netlist place in
  let arch = P.arch place in
  let n_nets = Spr_netlist.Netlist.n_nets nl in
  let capacity =
    channel_fill *. float_of_int (arch.Spr_arch.Arch.tracks * arch.Spr_arch.Arch.cols)
  in
  let s =
    {
      place;
      nl;
      hpwl = Array.make n_nets 0.0;
      chan_demand = Array.make arch.Spr_arch.Arch.n_channels 0.0;
      chan_of_net = Array.make n_nets [];
      capacity;
      total_hpwl = 0.0;
      cong_penalty = 0.0;
      undo = None;
    }
  in
  for net = 0 to n_nets - 1 do
    ignore (apply_net_update s net : float * (int * float) list)
  done;
  s

let cost s = s.total_hpwl +. (congestion_weight *. s.cong_penalty)

let propose s rng =
  assert (s.undo = None);
  let rec find tries =
    if tries = 0 then None
    else begin
      let a = P.random_occupied_slot s.place rng in
      let b = P.random_slot s.place rng in
      if a <> b && P.swap_legal s.place a b then Some (a, b) else find (tries - 1)
    end
  in
  match find max_swap_tries with
  | None -> false
  | Some (a, b) ->
    let occupants = List.filter_map (fun slot -> P.cell_at s.place slot) [ a; b ] in
    let nets =
      List.sort_uniq compare
        (List.concat_map (fun c -> Spr_netlist.Netlist.nets_of_cell s.nl c) occupants)
    in
    P.swap_slots s.place a b;
    let saved = List.map (fun net -> (net, apply_net_update s net)) nets in
    s.undo <-
      Some
        (fun () ->
          P.swap_slots s.place a b;
          List.iter
            (fun (net, (old_h, old_loads)) ->
              (* Re-applying the cached values restores totals exactly. *)
              s.total_hpwl <- s.total_hpwl -. s.hpwl.(net) +. old_h;
              s.hpwl.(net) <- old_h;
              let adjust (ch, len) sign =
                let before = s.chan_demand.(ch) in
                let after = before +. (sign *. len) in
                s.chan_demand.(ch) <- after;
                s.cong_penalty <-
                  s.cong_penalty
                  -. overflow_penalty s.capacity before
                  +. overflow_penalty s.capacity after
              in
              List.iter (fun load -> adjust load (-1.0)) s.chan_of_net.(net);
              List.iter (fun load -> adjust load 1.0) old_loads;
              s.chan_of_net.(net) <- old_loads)
            saved);
    true

let run ~seed ?anneal ?(should_stop = fun () -> false) arch nl =
  let rng = Spr_util.Rng.create seed in
  match P.create arch nl ~rng with
  | Error e -> Error e
  | Ok place ->
    let s = create place in
    let report =
      Spr_anneal.Engine.run ?config:anneal
        ~should_stop:(fun ~moves:_ ~accepted:_ -> should_stop ())
        ~rng
        ~cost:(fun () -> cost s)
        ~propose:(fun rng -> propose s rng)
        ~accept:(fun () -> s.undo <- None)
        ~reject:(fun () ->
          match s.undo with
          | Some f ->
            f ();
            s.undo <- None
          | None -> ())
        ~n:(Spr_netlist.Netlist.n_cells nl)
        ()
    in
    Ok (place, report)

(* Zero-temperature descent over an existing placement: keep proposing
   swaps, keep only the improving ones. The flow engine's greedy stage
   rides this when a previous stage already produced a placement. *)
let refine ?(should_stop = fun () -> false) ~rng ~moves place =
  let s = create place in
  let accepted = ref 0 in
  let step = ref 0 in
  while !step < moves && not (should_stop ()) do
    incr step;
    let before = cost s in
    if propose s rng then begin
      let after = cost s in
      if after <= before then begin
        s.undo <- None;
        if after < before then incr accepted
      end
      else
        match s.undo with
        | Some f ->
          f ();
          s.undo <- None
        | None -> ()
    end
  done;
  !accepted

let wirelength place =
  let nl = P.netlist place in
  let total = ref 0.0 in
  for net = 0 to Spr_netlist.Netlist.n_nets nl - 1 do
    total := !total +. net_hpwl place net
  done;
  !total

(* From-scratch recomputation of both cost components, the oracle for
   the incremental bookkeeping above. *)
let recompute_totals s =
  let nl = s.nl in
  let hpwl = ref 0.0 in
  let demand = Array.make (Array.length s.chan_demand) 0.0 in
  for net = 0 to Spr_netlist.Netlist.n_nets nl - 1 do
    hpwl := !hpwl +. net_hpwl s.place net;
    List.iter (fun (ch, len) -> demand.(ch) <- demand.(ch) +. len) (channel_loads s.place net)
  done;
  let penalty =
    Array.fold_left (fun acc d -> acc +. overflow_penalty s.capacity d) 0.0 demand
  in
  (!hpwl, penalty, demand)

let self_test ?(moves = 500) arch nl ~seed =
  let rng = Spr_util.Rng.create seed in
  match P.create arch nl ~rng with
  | Error e -> Error e
  | Ok place ->
    let s = create place in
    let check step =
      let hpwl, penalty, demand = recompute_totals s in
      if Float.abs (hpwl -. s.total_hpwl) > 1e-6 then
        Error (Printf.sprintf "step %d: hpwl drift (%.6f vs %.6f)" step s.total_hpwl hpwl)
      else if Float.abs (penalty -. s.cong_penalty) > 1e-6 then
        Error
          (Printf.sprintf "step %d: congestion drift (%.6f vs %.6f)" step s.cong_penalty penalty)
      else begin
        let drift = ref None in
        Array.iteri
          (fun ch d ->
            if !drift = None && Float.abs (d -. s.chan_demand.(ch)) > 1e-6 then
              drift := Some (Printf.sprintf "step %d: channel %d demand drift" step ch))
          demand;
        match !drift with Some e -> Error e | None -> Ok ()
      end
    in
    let rec loop step =
      if step > moves then Ok ()
      else if not (propose s rng) then loop (step + 1)
      else begin
        (if Spr_util.Rng.bool rng then s.undo <- None
         else
           match s.undo with
           | Some f ->
             f ();
             s.undo <- None
           | None -> ());
        match check step with Error e -> Error e | Ok () -> loop (step + 1)
      end
    in
    loop 1
