module Seg = Spr_arch.Segmentation
module Tool = Spr_core.Tool

type row = {
  scheme : Seg.scheme;
  avg_segment_len : float;
  sim_routed : bool;
  sim_unrouted : int;
  sim_delay_ns : float;
  seq_routed : bool;
  seq_unrouted : int;
  seq_delay_ns : float;
}

let schemes = [ Seg.Uniform 3; Seg.Uniform 6; Seg.Actel_like; Seg.Geometric; Seg.Full ]

let run ?(effort = Profiles.Quick) ?(seed = 1) ?(circuit = "cse") ?(tracks = 24) () =
  let nl = Spr_netlist.Circuits.make_by_name circuit in
  let n = Spr_netlist.Netlist.n_cells nl in
  List.map
    (fun scheme ->
      let arch = Profiles.arch_for ~tracks ~hscheme:scheme nl in
      let sim =
        Tool.best_result (Tool.run_exn ~config:(Profiles.tool_config ~seed effort ~n) arch nl)
      in
      let seq = Spr_flow.run_exn ~config:(Profiles.seq_flow_config ~seed effort ~n) arch nl in
      {
        scheme;
        avg_segment_len = Spr_arch.Arch.avg_hseg_length arch;
        sim_routed = sim.Tool.fully_routed;
        sim_unrouted = sim.Tool.d;
        sim_delay_ns = sim.Tool.critical_delay;
        seq_routed = seq.Spr_flow.f_fully_routed;
        seq_unrouted = seq.Spr_flow.f_d;
        seq_delay_ns = seq.Spr_flow.f_critical_delay;
      })
    schemes

let render rows =
  let header =
    [ "Segmentation"; "avg seg"; "sim unrouted"; "sim delay"; "seq unrouted"; "seq delay" ]
  in
  let body =
    List.map
      (fun r ->
        [
          Seg.scheme_to_string r.scheme;
          Printf.sprintf "%.1f" r.avg_segment_len;
          string_of_int r.sim_unrouted;
          Printf.sprintf "%.1f ns" r.sim_delay_ns;
          string_of_int r.seq_unrouted;
          Printf.sprintf "%.1f ns" r.seq_delay_ns;
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
      ]
    ~header body
