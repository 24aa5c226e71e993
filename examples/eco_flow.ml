(* ECO flow: run the simultaneous tool once, checkpoint the layout,
   render it, then apply incremental edits — the maintenance workload of
   a production layout tool built on the same transactional machinery as
   the annealer.

     dune exec examples/eco_flow.exe -- [circuit] *)

module Tool = Spr_core.Tool
module Eco = Spr_core.Eco
module Cp = Spr_core.Checkpoint
module P = Spr_layout.Placement

let () =
  let circuit = if Array.length Sys.argv > 1 then Sys.argv.(1) else "cse" in
  let nl = Spr_netlist.Circuits.make_by_name circuit in
  let arch = Spr_arch.Arch.size_for ~tracks:30 nl in
  Printf.printf "initial layout of %s...\n%!" circuit;
  let r = Tool.best_result (Tool.run_exn arch nl) in
  Printf.printf "routed=%b  critical=%.2f ns\n" r.Tool.fully_routed r.Tool.critical_delay;

  (* checkpoint to disk and restore, proving the layout round-trips *)
  let ckpt = Filename.temp_file "spr_eco" ".ckpt" in
  Cp.save r.Tool.route ckpt;
  (match Cp.load nl ckpt with
  | Ok restored ->
    Printf.printf "checkpoint round-trip ok (%s, %d bytes)\n" ckpt
      (String.length (Cp.to_string restored))
  | Error e -> Printf.printf "checkpoint failed: %s\n" e);
  Sys.remove ckpt;

  (* render the die with the critical path highlighted *)
  let hot = Spr_render.Die_plot.critical_nets r.Tool.sta r.Tool.route in
  Spr_render.Die_plot.save_svg ~highlight:hot r.Tool.route "eco_layout.svg";
  Printf.printf "die plot written to eco_layout.svg (critical path in red)\n";

  (* incremental edits: try swapping pairs of cells on the critical
     path with their neighbours, keeping only improvements *)
  let eco = Eco.of_result r in
  let path = Spr_timing.Sta.critical_path r.Tool.sta in
  let tried = ref 0 and kept = ref 0 in
  List.iter
    (fun cell ->
      if (not (Spr_netlist.Cell_kind.is_io (Spr_netlist.Netlist.cell nl cell).Spr_netlist.Netlist.kind))
         && !tried < 8
      then begin
        incr tried;
        let slot = P.slot_of r.Tool.place cell in
        let dest = { slot with P.col = min (arch.Spr_arch.Arch.cols - 1) (slot.P.col + 1) } in
        match Eco.move_cell eco ~cell ~dest with
        | Error _ -> ()
        | Ok delta ->
          let better =
            delta.Eco.unrouted_after <= delta.Eco.unrouted_before
            && delta.Eco.delay_after_ns < delta.Eco.delay_before_ns
          in
          Printf.printf "  move cell %d: %.2f -> %.2f ns, %d nets rerouted -> %s\n" cell
            delta.Eco.delay_before_ns delta.Eco.delay_after_ns
            (List.length delta.Eco.rerouted_nets)
            (if better then "keep" else "undo");
          if better then begin
            Eco.commit eco;
            incr kept
          end
          else Eco.rollback eco
      end)
    path;
  Printf.printf "ECO pass: %d edits tried, %d kept; final critical %.2f ns, %d unrouted\n"
    !tried !kept (Eco.critical_delay eco) (Eco.unrouted eco)
