(* Quickstart: build a small circuit, size a fabric for it, run the
   simultaneous place-and-route tool, and inspect the result.

     dune exec examples/quickstart.exe *)

let () =
  (* 1. A circuit. Normally this comes from Blif.parse_file or the
     synthetic generator; here we assemble a tiny pipeline by hand to
     show the netlist builder API. *)
  let open Spr_netlist in
  let b = Netlist.Builder.create () in
  let pi name = Netlist.Builder.add_cell b ~name ~kind:Cell_kind.Input ~n_inputs:0 in
  let comb name n = Netlist.Builder.add_cell b ~name ~kind:Cell_kind.Comb ~n_inputs:n in
  let a = pi "a" and c = pi "c" in
  let g1 = comb "g1" 2 in
  let g2 = comb "g2" 2 in
  let ff = Netlist.Builder.add_cell b ~name:"state" ~kind:Cell_kind.Seq ~n_inputs:1 in
  let po = Netlist.Builder.add_cell b ~name:"out" ~kind:Cell_kind.Output ~n_inputs:1 in
  let net name driver = Netlist.Builder.add_net b ~name ~driver in
  let na = net "a" a and nc = net "c" c in
  let n1 = net "g1" g1 and n2 = net "g2" g2 in
  let nf = net "state" ff in
  Netlist.Builder.add_sink b ~net:na ~cell:g1 ~pin:0;
  Netlist.Builder.add_sink b ~net:nc ~cell:g1 ~pin:1;
  Netlist.Builder.add_sink b ~net:n1 ~cell:g2 ~pin:0;
  Netlist.Builder.add_sink b ~net:nf ~cell:g2 ~pin:1;
  Netlist.Builder.add_sink b ~net:n2 ~cell:ff ~pin:0;
  Netlist.Builder.add_sink b ~net:n1 ~cell:po ~pin:0;
  let nl = Netlist.Builder.finish_exn b in
  Format.printf "circuit: %a@." Netlist.pp_summary nl;

  (* 2. A fabric: explicit here; Arch.size_for picks one automatically. *)
  let arch = Spr_arch.Arch.create ~rows:3 ~cols:6 ~tracks:8 () in
  Format.printf "fabric:  %a@." Spr_arch.Arch.pp arch;

  (* 3. Simultaneous place and route. *)
  let result = Spr_core.Tool.(best_result (run_exn arch nl)) in
  let open Spr_core.Tool in
  Format.printf "fully routed: %b (G=%d, D=%d)@." result.fully_routed result.g result.d;
  Format.printf "critical path delay: %.2f ns@." result.critical_delay;

  (* 4. Inspect the layout: cell positions and the critical path. *)
  List.iter
    (fun cell ->
      let slot = Spr_layout.Placement.slot_of result.place cell.Netlist.id in
      Format.printf "  %-6s -> row %d, col %d@." cell.Netlist.cell_name
        slot.Spr_layout.Placement.row slot.Spr_layout.Placement.col)
    (Array.to_list (Netlist.cells nl));
  let path = Spr_timing.Sta.critical_path result.sta in
  Format.printf "critical path: %s@."
    (String.concat " -> "
       (List.map (fun c -> (Netlist.cell nl c).Netlist.cell_name) path));

  (* 5. Inspect one routed net: its spine and channel segments. *)
  let net0 = 2 (* the g1 net: three sinks *) in
  (match Spr_route.Route_state.global_route result.route net0 with
  | Some vr ->
    Format.printf "net g1 feedthrough: column %d, vertical track %d@."
      vr.Spr_route.Route_state.v_col vr.Spr_route.Route_state.v_vtrack
  | None -> Format.printf "net g1 needs no feedthrough@.");
  List.iter
    (fun (ch, hr) ->
      Format.printf "net g1 in channel %d: track %d, segments %d..%d@." ch
        hr.Spr_route.Route_state.h_track hr.Spr_route.Route_state.h_slo
        hr.Spr_route.Route_state.h_shi)
    (Spr_route.Route_state.h_routes result.route net0)
