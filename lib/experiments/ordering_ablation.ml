module Tool = Spr_core.Tool

type t = {
  circuit : string;
  length_ordered_delay_ns : float;
  length_ordered_unrouted : int;
  criticality_ordered_delay_ns : float;
  criticality_ordered_unrouted : int;
}

let run ?(effort = Profiles.Quick) ?(seed = 1) ?(circuit = "cse") ?(tracks = 28) () =
  let nl = Spr_netlist.Circuits.make_by_name circuit in
  let n = Spr_netlist.Netlist.n_cells nl in
  let arch = Profiles.arch_for ~tracks nl in
  let base = Profiles.tool_config ~seed effort ~n in
  let plain = Tool.best_result (Tool.run_exn ~config:base arch nl) in
  let crit =
    Tool.best_result
      (Tool.run_exn ~config:(Tool.Config.with_timing_driven_routing true base) arch nl)
  in
  {
    circuit;
    length_ordered_delay_ns = plain.Tool.critical_delay;
    length_ordered_unrouted = plain.Tool.d;
    criticality_ordered_delay_ns = crit.Tool.critical_delay;
    criticality_ordered_unrouted = crit.Tool.d;
  }

let render t =
  Printf.sprintf
    "Queue-ordering ablation on %s:\n\
    \  length-ordered (paper default): %.1f ns, %d unrouted\n\
    \  criticality-first:              %.1f ns, %d unrouted\n"
    t.circuit t.length_ordered_delay_ns t.length_ordered_unrouted
    t.criticality_ordered_delay_ns t.criticality_ordered_unrouted
