module Tool = Spr_core.Tool

type t = {
  circuit : string;
  with_pinmaps_delay_ns : float;
  with_pinmaps_unrouted : int;
  without_pinmaps_delay_ns : float;
  without_pinmaps_unrouted : int;
}

let run ?(effort = Profiles.Standard) ?(seed = 1) ?(circuit = "s1") ?(tracks = 28) () =
  let nl = Spr_netlist.Circuits.make_by_name circuit in
  let n = Spr_netlist.Netlist.n_cells nl in
  let arch = Profiles.arch_for ~tracks nl in
  let base = Profiles.tool_config ~seed effort ~n in
  let with_pm = Tool.best_result (Tool.run_exn ~config:base arch nl) in
  let without_pm =
    Tool.best_result (Tool.run_exn ~config:(Tool.Config.with_pinmap_moves false base) arch nl)
  in
  {
    circuit;
    with_pinmaps_delay_ns = with_pm.Tool.critical_delay;
    with_pinmaps_unrouted = with_pm.Tool.d;
    without_pinmaps_delay_ns = without_pm.Tool.critical_delay;
    without_pinmaps_unrouted = without_pm.Tool.d;
  }

let render t =
  Printf.sprintf
    "Pinmap-move ablation on %s:\n\
    \  with pinmap moves:    %.1f ns, %d unrouted\n\
    \  without pinmap moves: %.1f ns, %d unrouted\n\
    \  delay delta: %.1f%%\n"
    t.circuit t.with_pinmaps_delay_ns t.with_pinmaps_unrouted t.without_pinmaps_delay_ns
    t.without_pinmaps_unrouted
    (100.0
    *. (t.without_pinmaps_delay_ns -. t.with_pinmaps_delay_ns)
    /. t.without_pinmaps_delay_ns)
