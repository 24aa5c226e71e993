module Circuits = Spr_netlist.Circuits
module Tool = Spr_core.Tool

type row = {
  circuit : string;
  n_cells : int;
  tracks_used : int;
  seq_delay_ns : float;
  sim_delay_ns : float;
  improvement_pct : float;
  seq_routed : bool;
  sim_routed : bool;
  seq_cpu_s : float;
  sim_cpu_s : float;
}

(* The paper's designs were routed 100% by both tools before timing was
   compared, so widen the fabric until the (weaker) sequential flow
   routes completely. *)
let rec find_seq_width nl ~effort ~seed ~tracks ~limit =
  let arch = Profiles.arch_for ~tracks nl in
  let n = Spr_netlist.Netlist.n_cells nl in
  let seq = Spr_flow.run_exn ~config:(Profiles.seq_flow_config ~seed effort ~n) arch nl in
  if seq.Spr_flow.f_fully_routed || tracks + 4 > limit then (tracks, arch, seq)
  else find_seq_width nl ~effort ~seed ~tracks:(tracks + 4) ~limit

let run_circuit ?(effort = Profiles.Standard) ?(seed = 1) spec =
  let nl = Circuits.make spec in
  let n = Spr_netlist.Netlist.n_cells nl in
  let tracks, arch, seq = find_seq_width nl ~effort ~seed ~tracks:28 ~limit:48 in
  let sim =
    Tool.best_result (Tool.run_exn ~config:(Profiles.tool_config ~seed effort ~n) arch nl)
  in
  let improvement =
    100.0
    *. (seq.Spr_flow.f_critical_delay -. sim.Tool.critical_delay)
    /. seq.Spr_flow.f_critical_delay
  in
  {
    circuit = spec.Circuits.spec_name;
    n_cells = spec.Circuits.spec_cells;
    tracks_used = tracks;
    seq_delay_ns = seq.Spr_flow.f_critical_delay;
    sim_delay_ns = sim.Tool.critical_delay;
    improvement_pct = improvement;
    seq_routed = seq.Spr_flow.f_fully_routed;
    sim_routed = sim.Tool.fully_routed;
    seq_cpu_s = Spr_flow.stage_seconds seq;
    sim_cpu_s = sim.Tool.cpu_seconds;
  }

let run ?effort ?seed () = List.map (run_circuit ?effort ?seed) Circuits.table_specs

let render rows =
  let header =
    [ "Design"; "#cells"; "tracks"; "seq delay"; "sim delay"; "%improve"; "routed"; "cpu s/s" ]
  in
  let body =
    List.map
      (fun r ->
        [
          r.circuit;
          string_of_int r.n_cells;
          string_of_int r.tracks_used;
          Printf.sprintf "%.1f ns" r.seq_delay_ns;
          Printf.sprintf "%.1f ns" r.sim_delay_ns;
          Printf.sprintf "%.0f" r.improvement_pct;
          Printf.sprintf "%b/%b" r.seq_routed r.sim_routed;
          Printf.sprintf "%.0f/%.0f" r.seq_cpu_s r.sim_cpu_s;
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
        Spr_util.Table.Right;
        Spr_util.Table.Left;
        Spr_util.Table.Right;
      ]
    ~header body
