module P = Spr_layout.Placement
module Rs = Spr_route.Route_state
module Router = Spr_route.Router
module Sta = Spr_timing.Sta
module J = Spr_util.Journal
module Clock = Spr_util.Clock

type t = {
  router : Router.config;
  place : P.t;
  rs : Rs.t;
  sta : Sta.t;
  weights : Spr_anneal.Weights.t;
  journal : J.t;
  profile : Profile.t;
  pinmap_move_prob : float;
  enable_pinmap_moves : bool;
  max_swap_tries : int;
  mutable last_cells : int list;
}

(* [route_grain] is an inert stub: bench/ledger/traced.ml still passes
   it, and nothing reads it. *)
let create ?profile ?route_grain:_ ~router ~pinmap_move_prob ~enable_pinmap_moves
    ~max_swap_tries ~place ~rs ~sta ~weights ~journal () =
  (* The caller hands over a routing state whose STA is canonical, so
     whatever the initial routing marked dirty is already reflected in
     the timing picture. *)
  Rs.clear_dirty rs;
  {
    router;
    place;
    rs;
    sta;
    weights;
    journal;
    profile = (match profile with Some p -> p | None -> Profile.create ());
    pinmap_move_prob;
    enable_pinmap_moves;
    max_swap_tries;
    last_cells = [];
  }

let profile t = t.profile

let last_cells t = t.last_cells

(* --- phase 1: propose ------------------------------------------------
   Pick a perturbation and apply the placement delta (journaled). The
   perturbed cells come back so rip-up knows what to invalidate; [None]
   when no legal move was found. *)

let propose_pinmap t rng =
  let nl = P.netlist t.place in
  let n = Spr_netlist.Netlist.n_cells nl in
  let cell = Spr_util.Rng.int rng n in
  let size = P.palette_size t.place cell in
  if size < 2 then None
  else begin
    let old_idx = P.pinmap_index t.place cell in
    let shift = 1 + Spr_util.Rng.int rng (size - 1) in
    let idx = (old_idx + shift) mod size in
    P.set_pinmap t.place ~cell ~index:idx;
    J.record t.journal (fun () -> P.set_pinmap t.place ~cell ~index:old_idx);
    Some [ cell ]
  end

let propose_swap t rng =
  let rec find tries =
    if tries = 0 then None
    else begin
      let a = P.random_occupied_slot t.place rng in
      let b = P.random_slot t.place rng in
      if a <> b && P.swap_legal t.place a b then Some (a, b) else find (tries - 1)
    end
  in
  match find t.max_swap_tries with
  | None -> None
  | Some (a, b) ->
    let occupants = List.filter_map (fun slot -> P.cell_at t.place slot) [ a; b ] in
    P.swap_slots t.place a b;
    J.record t.journal (fun () -> P.swap_slots t.place a b);
    Some occupants

let propose_delta t rng =
  if t.enable_pinmap_moves && Spr_util.Rng.float rng 1.0 < t.pinmap_move_prob then
    propose_pinmap t rng
  else propose_swap t rng

(* --- phases 2-5: rip-up, reroute (global, detail), retime ------------ *)

let rip_up t cells =
  let ripped =
    List.sort_uniq compare
      (List.concat_map (fun cell -> Router.rip_up_cell t.rs t.journal cell) cells)
  in
  Profile.add_ripped t.profile (List.length ripped)

let retime t =
  let dirty = Rs.dirty_nets t.rs in
  Rs.clear_dirty t.rs;
  Profile.add_retimed t.profile (List.length dirty);
  Sta.invalidate t.sta t.journal dirty;
  Spr_anneal.Weights.observe t.weights ~delay:(Sta.critical_delay t.sta)

(* One full transaction up to the decision: every phase is bracketed, and
   the whole span is added to the move total so the per-phase times can
   be audited against it. *)
let propose t rng =
  assert (J.depth t.journal = 0);
  t.last_cells <- [];
  let t0 = Clock.now () in
  let cells = Profile.time t.profile Profile.Propose (fun () -> propose_delta t rng) in
  let formed =
    match cells with
    | None ->
      Profile.note_null_move t.profile;
      false
    | Some cells ->
      Profile.note_move t.profile;
      t.last_cells <- cells;
      Profile.time t.profile Profile.Rip_up (fun () -> rip_up t cells);
      let counters = Profile.counters t.profile in
      ignore
        (Profile.time t.profile Profile.Global (fun () ->
             Router.reroute_global ~config:t.router ~counters t.rs t.journal)
          : int list);
      ignore
        (Profile.time t.profile Profile.Detail (fun () ->
             Router.reroute_detail ~config:t.router ~counters t.rs t.journal)
          : int list);
      Profile.time t.profile Profile.Retime (fun () -> retime t);
      true
  in
  Profile.add_total t.profile (Clock.now () -. t0);
  formed

(* --- phase 6: decide -------------------------------------------------- *)

let decide t f =
  let t0 = Clock.now () in
  f ();
  let dt = Clock.now () -. t0 in
  Profile.record t.profile Profile.Decide dt;
  Profile.add_total t.profile dt

let accept t =
  Profile.note_accept t.profile;
  decide t (fun () -> J.commit t.journal)

let reject t =
  Profile.note_reject t.profile;
  decide t (fun () -> J.rollback t.journal)
