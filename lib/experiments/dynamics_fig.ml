module R = Spr_obs.Report

type t = {
  circuit : string;
  rows : R.dyn_row list;
  fully_routed : bool;
}

let run ?(effort = Profiles.Standard) ?(seed = 1) ?(circuit = "s1") () =
  let nl = Spr_netlist.Circuits.make_by_name circuit in
  let n = Spr_netlist.Netlist.n_cells nl in
  let arch = Profiles.arch_for ~tracks:28 nl in
  let r =
    Spr_core.Tool.(best_result (run_exn ~config:(Profiles.tool_config ~seed effort ~n) arch nl))
  in
  {
    circuit;
    rows = r.Spr_core.Tool.report.R.r_dynamics;
    fully_routed = r.Spr_core.Tool.fully_routed;
  }

let render t =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "Annealing dynamics on %s (%% per temperature):@." t.circuit;
  R.render_dynamics ppf t.rows;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let shape_holds t =
  match t.rows with
  | [] -> false
  | first :: _ ->
    let last = List.nth t.rows (List.length t.rows - 1) in
    let first_g_zero = List.find_opt (fun r -> r.R.dr_pct_g_unrouted <= 0.0) t.rows in
    let first_d_zero = List.find_opt (fun r -> r.R.dr_pct_unrouted <= 0.0) t.rows in
    first.R.dr_pct_cells >= 80.0
    && last.R.dr_pct_cells < first.R.dr_pct_cells
    && last.R.dr_pct_unrouted <= 0.0
    && last.R.dr_pct_g_unrouted <= 0.0
    &&
    match first_g_zero, first_d_zero with
    | Some g, Some d -> g.R.dr_temp_index <= d.R.dr_temp_index
    | _, _ -> false
