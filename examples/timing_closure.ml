(* Timing closure scenario: the same circuit laid out by the sequential
   baseline and by the simultaneous tool, with per-path detail — the
   workload of the paper's Table 1, on one circuit, with the critical
   paths shown.

     dune exec examples/timing_closure.exe -- [circuit] [tracks]

   circuit defaults to "cse"; tracks to 32 (generous enough for the
   sequential flow to route 100%, so the delay comparison is fair). *)

let pp_path nl sta label =
  let path = Spr_timing.Sta.critical_path sta in
  Printf.printf "%s critical path (%d cells):\n  %s\n" label (List.length path)
    (String.concat " -> "
       (List.map
          (fun c -> (Spr_netlist.Netlist.cell nl c).Spr_netlist.Netlist.cell_name)
          path))

let () =
  let circuit = if Array.length Sys.argv > 1 then Sys.argv.(1) else "cse" in
  let tracks = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 32 in
  let nl = Spr_netlist.Circuits.make_by_name circuit in
  Format.printf "circuit %s: %a@." circuit Spr_netlist.Netlist.pp_summary nl;
  let arch = Spr_arch.Arch.size_for ~tracks nl in
  Format.printf "fabric: %a@." Spr_arch.Arch.pp arch;

  Printf.printf "\n-- sequential place-then-route (TimberWolf-style baseline) --\n%!";
  let seq =
    Spr_flow.run_exn
      ~config:Spr_core.Tool.Config.(default |> with_flow_preset "seq")
      arch nl
  in
  Printf.printf "routed: %b   critical delay: %.2f ns   wirelength: %.0f   cpu: %.1f s\n"
    seq.Spr_flow.f_fully_routed seq.Spr_flow.f_critical_delay
    (Spr_seq.Seq_place.wirelength seq.Spr_flow.f_place)
    (Spr_flow.stage_seconds seq);
  pp_path nl seq.Spr_flow.f_sta "sequential";

  Printf.printf "\n-- simultaneous place and route (this paper) --\n%!";
  let sim = Spr_core.Tool.(best_result (run_exn arch nl)) in
  Printf.printf "routed: %b   critical delay: %.2f ns   cpu: %.1f s\n"
    sim.Spr_core.Tool.fully_routed sim.Spr_core.Tool.critical_delay
    sim.Spr_core.Tool.cpu_seconds;
  pp_path nl sim.Spr_core.Tool.sta "simultaneous";

  if seq.Spr_flow.f_fully_routed && sim.Spr_core.Tool.fully_routed then
    Printf.printf "\nworst-case timing improvement: %.0f%% (paper reports 16-28%%)\n"
      (100.0
      *. (seq.Spr_flow.f_critical_delay -. sim.Spr_core.Tool.critical_delay)
      /. seq.Spr_flow.f_critical_delay)
  else
    Printf.printf
      "\nnote: a flow failed to route 100%% at %d tracks; rerun with more tracks for a fair \
       delay comparison\n"
      tracks
