module Tool = Spr_core.Tool
module Rs = Spr_route.Route_state

type t = {
  n_cells : int;
  tracks : int;
  fully_routed : bool;
  routed_pct : float;
  critical_delay_ns : float;
  cpu_seconds : float;
  n_moves : int;
}

let run ?(effort = Profiles.Thorough) ?(seed = 1) ?(tracks = 38) () =
  let nl = Spr_netlist.Circuits.make Spr_netlist.Circuits.big529 in
  let n = Spr_netlist.Netlist.n_cells nl in
  let arch = Profiles.arch_for ~tracks nl in
  let r = Tool.best_result (Tool.run_exn ~config:(Profiles.tool_config ~seed effort ~n) arch nl) in
  let routable = max 1 (Rs.n_routable r.Tool.route) in
  {
    n_cells = n;
    tracks;
    fully_routed = r.Tool.fully_routed;
    routed_pct = 100.0 *. float_of_int (routable - r.Tool.d) /. float_of_int routable;
    critical_delay_ns = r.Tool.critical_delay;
    cpu_seconds = r.Tool.cpu_seconds;
    n_moves = r.Tool.anneal_report.Spr_anneal.Engine.n_moves;
  }

let render t =
  Printf.sprintf
    "Figure 7 reproduction: %d-cell design on a %d-track fabric\n\
    \  routed: %.1f%% (fully routed: %b)\n\
    \  critical path: %.1f ns\n\
    \  cpu: %.1f s over %d annealing moves\n"
    t.n_cells t.tracks t.routed_pct t.fully_routed t.critical_delay_ns t.cpu_seconds t.n_moves
