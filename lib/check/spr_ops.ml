module P = Spr_layout.Placement
module Rs = Spr_route.Route_state
module Router = Spr_route.Router
module Gr = Spr_route.Global_router
module Dr = Spr_route.Detail_router
module Sta = Spr_timing.Sta
module Arch = Spr_arch.Arch
module Nl = Spr_netlist.Netlist
module J = Spr_util.Journal
module Rng = Spr_util.Rng

type op =
  | Swap of int * int
  | Translate of int * int
  | Pinmap_move of int * int
  | Route_pass
  | Route_net of int
  | Unroute of int
  | Rip_cell of int
  | Begin
  | Commit
  | Rollback

let show_op = function
  | Swap (a, b) -> Printf.sprintf "Swap (%d, %d)" a b
  | Translate (c, s) -> Printf.sprintf "Translate (%d, %d)" c s
  | Pinmap_move (c, k) -> Printf.sprintf "Pinmap_move (%d, %d)" c k
  | Route_pass -> "Route_pass"
  | Route_net n -> Printf.sprintf "Route_net %d" n
  | Unroute n -> Printf.sprintf "Unroute %d" n
  | Rip_cell c -> Printf.sprintf "Rip_cell %d" c
  | Begin -> "Begin"
  | Commit -> "Commit"
  | Rollback -> "Rollback"

type state = {
  place : P.t;
  rs : Rs.t;
  sta : Sta.t;
  j : J.t;
  mutable txn : (int * string) option;  (** Journal mark and snapshot at [Begin]. *)
  mutable violation : string option;
}

(* Observable-state fingerprint: placement slots and pinmaps, the full
   routing snapshot, and the timing bottom line. Two states are
   journal-rollback-equivalent iff these strings are equal. *)
let full_snapshot st =
  let buf = Buffer.create 8192 in
  let n = Nl.n_cells (P.netlist st.place) in
  for c = 0 to n - 1 do
    let s = P.slot_of st.place c in
    Buffer.add_string buf
      (Printf.sprintf "cell %d @ (%d,%d) pinmap %d\n" c s.P.row s.P.col
         (P.pinmap_index st.place c))
  done;
  Buffer.add_string buf (Rs.snapshot st.rs);
  Buffer.add_string buf (Printf.sprintf "critical %.12f\n" (Sta.critical_delay st.sta));
  Buffer.contents buf

let make ?(n_cells = 44) ?(tracks = 14) ~seed () =
  let nl = Spr_netlist.Generator.generate (Spr_netlist.Generator.default ~n_cells) ~seed in
  let arch = Arch.size_for ~tracks nl in
  let place = P.create_exn arch nl ~rng:(Rng.create ((seed * 7919) + 1)) in
  let rs = Rs.create place in
  Router.route_all ~passes:2 rs;
  let sta = Sta.create Spr_timing.Delay_model.default rs in
  { place; rs; sta; j = J.create (); txn = None; violation = None }

let route_state st = st.rs

let sta_dirty st nets =
  if nets <> [] then Sta.invalidate st.sta st.j (List.sort_uniq compare nets)

let apply st op =
  let arch = P.arch st.place in
  let nl = P.netlist st.place in
  let n_cells = Nl.n_cells nl and n_nets = Nl.n_nets nl in
  let n_slots = Arch.n_slots arch in
  let slot_of_code x =
    let e = x mod n_slots in
    { P.row = e / arch.Arch.cols; col = e mod arch.Arch.cols }
  in
  match op with
  | Swap (a, b) ->
    let sa = slot_of_code a and sb = slot_of_code b in
    if sa <> sb && P.swap_legal st.place sa sb then begin
      let occupants = List.filter_map (fun s -> P.cell_at st.place s) [ sa; sb ] in
      P.swap_slots st.place sa sb;
      J.record st.j (fun () -> P.swap_slots st.place sa sb);
      sta_dirty st
        (List.concat_map (fun cell -> Router.rip_up_cell st.rs st.j cell) occupants)
    end
  | Translate (c, s) ->
    let cell = c mod n_cells in
    let target = slot_of_code s in
    let src = P.slot_of st.place cell in
    if target <> src && P.cell_at st.place target = None
       && P.legal_at st.place ~cell target
    then begin
      P.swap_slots st.place src target;
      J.record st.j (fun () -> P.swap_slots st.place src target);
      sta_dirty st (Router.rip_up_cell st.rs st.j cell)
    end
  | Pinmap_move (c, shift) ->
    let cell = c mod n_cells in
    let size = P.palette_size st.place cell in
    if size >= 2 then begin
      let old_idx = P.pinmap_index st.place cell in
      let idx = (old_idx + shift) mod size in
      if idx <> old_idx then begin
        P.set_pinmap st.place ~cell ~index:idx;
        J.record st.j (fun () -> P.set_pinmap st.place ~cell ~index:old_idx);
        sta_dirty st (Router.rip_up_cell st.rs st.j cell)
      end
    end
  | Route_pass -> sta_dirty st (Router.reroute st.rs st.j)
  | Route_net n ->
    let net = n mod n_nets in
    let touched = ref false in
    if List.mem net (Rs.u_g st.rs) then
      if Gr.attempt st.rs st.j net then touched := true;
    List.iter
      (fun channel -> if Dr.attempt st.rs st.j ~net ~channel then touched := true)
      (Rs.missing_channels st.rs net);
    if !touched then sta_dirty st [ net ]
  | Unroute n ->
    let net = n mod n_nets in
    Rs.rip_up st.rs st.j net;
    sta_dirty st [ net ]
  | Rip_cell c -> sta_dirty st (Router.rip_up_cell st.rs st.j (c mod n_cells))
  | Begin -> if st.txn = None then st.txn <- Some (J.mark st.j, full_snapshot st)
  | Commit -> (
    match st.txn with
    | None -> ()
    | Some _ ->
      J.commit st.j;
      st.txn <- None)
  | Rollback -> (
    match st.txn with
    | None -> ()
    | Some (mark, before) ->
      J.rollback_to st.j mark;
      st.txn <- None;
      if full_snapshot st <> before then
        st.violation <- Some "rollback did not restore the pre-transaction state")

let check st =
  match st.violation with
  | Some e -> Error e
  | None -> (
    match Audit.run_all ~sta:st.sta st.rs with
    | [] -> Ok ()
    | f :: _ -> Error (Finding.to_string f))

(* Operation mix: placement perturbations and routing traffic dominate,
   with enough transaction control that rollbacks regularly cover long
   mutation cascades. *)
let gen rng =
  match Rng.int rng 100 with
  | x when x < 16 -> Swap (Rng.int rng 1_000_000, Rng.int rng 1_000_000)
  | x when x < 28 -> Translate (Rng.int rng 1_000_000, Rng.int rng 1_000_000)
  | x when x < 38 -> Pinmap_move (Rng.int rng 1_000_000, 1 + Rng.int rng 3)
  | x when x < 50 -> Route_net (Rng.int rng 1_000_000)
  | x when x < 58 -> Route_pass
  | x when x < 70 -> Unroute (Rng.int rng 1_000_000)
  | x when x < 78 -> Rip_cell (Rng.int rng 1_000_000)
  | x when x < 86 -> Begin
  | x when x < 93 -> Commit
  | _ -> Rollback

let spec ?n_cells ?tracks () =
  {
    Prop.name = "incremental SPR state vs full-state audit";
    init = (fun seed -> make ?n_cells ?tracks ~seed ());
    gen;
    apply;
    check;
    show = show_op;
  }
