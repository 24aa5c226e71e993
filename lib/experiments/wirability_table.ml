module Circuits = Spr_netlist.Circuits
module Tool = Spr_core.Tool

type row = {
  circuit : string;
  n_cells : int;
  seq_min_tracks : int;
  sim_min_tracks : int;
  reduction_pct : float;
}

(* Descend one track at a time from a known-feasible width; a width
   counts as infeasible only when two seeds both fail. Returns the last
   width that routed 100%. *)
let min_tracks ~routes ~start ~floor =
  let feasible tracks = routes ~alt_seed:false ~tracks || routes ~alt_seed:true ~tracks in
  let rec descend tracks last_good =
    if tracks < floor then last_good
    else if feasible tracks then descend (tracks - 1) tracks
    else last_good
  in
  descend (start - 1) start

let rec first_feasible ~routes ~tracks ~limit =
  if routes ~alt_seed:false ~tracks || tracks + 4 > limit then tracks
  else first_feasible ~routes ~tracks:(tracks + 4) ~limit

let run_circuit ?(effort = Profiles.Quick) ?(seed = 1) ?(start_tracks = 28) spec =
  let nl = Circuits.make spec in
  let n = Spr_netlist.Netlist.n_cells nl in
  let seq_routes ~alt_seed ~tracks =
    let seed = if alt_seed then seed + 77 else seed in
    let arch = Profiles.arch_for ~tracks nl in
    (Spr_flow.run_exn ~config:(Profiles.seq_flow_config ~seed effort ~n) arch nl)
      .Spr_flow.f_fully_routed
  in
  let sim_routes ~alt_seed ~tracks =
    let seed = if alt_seed then seed + 77 else seed in
    let arch = Profiles.arch_for ~tracks nl in
    (Tool.best_result (Tool.run_exn ~config:(Profiles.tool_config ~seed effort ~n) arch nl))
      .Tool.fully_routed
  in
  let seq_start = first_feasible ~routes:seq_routes ~tracks:start_tracks ~limit:48 in
  let sim_start = first_feasible ~routes:sim_routes ~tracks:start_tracks ~limit:48 in
  let seq_min = min_tracks ~routes:seq_routes ~start:seq_start ~floor:4 in
  let sim_min = min_tracks ~routes:sim_routes ~start:sim_start ~floor:4 in
  {
    circuit = spec.Circuits.spec_name;
    n_cells = spec.Circuits.spec_cells;
    seq_min_tracks = seq_min;
    sim_min_tracks = sim_min;
    reduction_pct = 100.0 *. float_of_int (seq_min - sim_min) /. float_of_int seq_min;
  }

let run ?effort ?seed () = List.map (run_circuit ?effort ?seed) Circuits.table_specs

let render rows =
  let header = [ "Design"; "#cells"; "Seq. P&R"; "Sim. P&R"; "%reduction" ] in
  let body =
    List.map
      (fun r ->
        [
          r.circuit;
          string_of_int r.n_cells;
          string_of_int r.seq_min_tracks;
          string_of_int r.sim_min_tracks;
          Printf.sprintf "%.0f" r.reduction_pct;
        ])
      rows
  in
  Spr_util.Table.render
    ~align:
      [
        Spr_util.Table.Left;
        Spr_util.Table.Right;
        Spr_util.Table.Right;
        Spr_util.Table.Right;
        Spr_util.Table.Right;
      ]
    ~header body
