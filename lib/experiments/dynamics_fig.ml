module D = Spr_core.Dynamics

type t = {
  circuit : string;
  samples : D.sample list;
  fully_routed : bool;
}

let run ?(effort = Profiles.Standard) ?(seed = 1) ?(circuit = "s1") () =
  let nl = Spr_netlist.Circuits.make_by_name circuit in
  let n = Spr_netlist.Netlist.n_cells nl in
  let arch = Profiles.arch_for ~tracks:28 nl in
  let r =
    Spr_core.Tool.(best_result (run_exn ~config:(Profiles.tool_config ~seed effort ~n) arch nl))
  in
  { circuit; samples = r.Spr_core.Tool.dynamics; fully_routed = r.Spr_core.Tool.fully_routed }

let render t =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "Annealing dynamics on %s (%% per temperature):@." t.circuit;
  D.pp_series ppf t.samples;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let shape_holds t =
  match t.samples with
  | [] -> false
  | first :: _ ->
    let last = List.nth t.samples (List.length t.samples - 1) in
    let first_g_zero =
      List.find_opt (fun s -> s.D.pct_nets_globally_unrouted <= 0.0) t.samples
    in
    let first_d_zero = List.find_opt (fun s -> s.D.pct_nets_unrouted <= 0.0) t.samples in
    first.D.pct_cells_perturbed >= 80.0
    && last.D.pct_cells_perturbed < first.D.pct_cells_perturbed
    && last.D.pct_nets_unrouted <= 0.0
    && last.D.pct_nets_globally_unrouted <= 0.0
    &&
    match first_g_zero, first_d_zero with
    | Some g, Some d -> g.D.dyn_temp_index <= d.D.dyn_temp_index
    | _, _ -> false
