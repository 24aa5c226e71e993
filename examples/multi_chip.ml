(* Multi-FPGA scenario (paper §2.2): a design too large for one device is
   FM-bipartitioned, each piece gets cut pads, and each piece is placed
   and routed independently by the simultaneous tool.

     dune exec examples/multi_chip.exe -- [circuit] *)

module Mc = Spr_partition.Multi_chip
module Fm = Spr_partition.Fm
module Tool = Spr_core.Tool

let () =
  let circuit = if Array.length Sys.argv > 1 then Sys.argv.(1) else "big529" in
  let nl = Spr_netlist.Circuits.make_by_name circuit in
  Format.printf "design: %a@." Spr_netlist.Netlist.pp_summary nl;
  let rng = Spr_util.Rng.create 11 in
  let split, fm = Mc.bipartition_and_split ~rng nl in
  Printf.printf "FM bipartition: %d cut nets after %d passes; %d pads added\n%!"
    fm.Fm.cut_nets fm.Fm.passes split.Mc.pads_added;
  Array.iteri
    (fun i piece ->
      Format.printf "-- chip %d: %a@." i Spr_netlist.Netlist.pp_summary piece.Mc.netlist;
      let arch = Spr_arch.Arch.size_for ~tracks:30 piece.Mc.netlist in
      let n = Spr_netlist.Netlist.n_cells piece.Mc.netlist in
      let config =
        Tool.Config.(
          default
          |> with_seed (3 + i)
          |> with_anneal
               {
                 (Spr_anneal.Engine.default_config ~n) with
                 Spr_anneal.Engine.moves_per_temp = max 400 (5 * n);
                 max_temperatures = 90;
               })
      in
      let r = Tool.best_result (Tool.run_exn ~config arch piece.Mc.netlist) in
      Printf.printf "   routed=%b (G=%d D=%d)  critical=%.2f ns  cpu=%.1f s\n%!"
        r.Tool.fully_routed r.Tool.g r.Tool.d r.Tool.critical_delay r.Tool.cpu_seconds)
    split.Mc.pieces;
  Printf.printf
    "each chip routed on a fabric roughly half the monolithic one; the %d cut nets become \
     chip-to-chip wires\n"
    split.Mc.cut_nets
