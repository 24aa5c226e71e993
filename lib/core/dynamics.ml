type t = {
  n_cells : int;
  perturbed : bool array;
  mutable n_perturbed : int;
  mutable acc : Spr_obs.Report.dyn_row list;  (* reversed *)
}

let create ~n_cells = { n_cells; perturbed = Array.make n_cells false; n_perturbed = 0; acc = [] }

let note_accepted_cells t cells =
  List.iter
    (fun c ->
      if not t.perturbed.(c) then begin
        t.perturbed.(c) <- true;
        t.n_perturbed <- t.n_perturbed + 1
      end)
    cells

let flush ?(phase_seconds = [||]) t ~temp_index ~temperature ~g_frac ~d_frac ~acceptance
    ~cost ~critical_delay =
  let row =
    {
      Spr_obs.Report.dr_temp_index = temp_index;
      dr_temperature = temperature;
      dr_pct_cells = 100.0 *. float_of_int t.n_perturbed /. float_of_int t.n_cells;
      dr_pct_g_unrouted = 100.0 *. g_frac;
      dr_pct_unrouted = 100.0 *. d_frac;
      dr_acceptance = acceptance;
      dr_cost = cost;
      dr_delay_ns = critical_delay;
      dr_phase_seconds =
        (if Array.length phase_seconds <> Profile.n_phases then []
         else
           List.map
             (fun p -> (Profile.phase_name p, phase_seconds.(Profile.phase_index p)))
             Profile.phases);
    }
  in
  t.acc <- row :: t.acc;
  Array.fill t.perturbed 0 (Array.length t.perturbed) false;
  t.n_perturbed <- 0

let samples t = List.rev t.acc

let last_sample t = match t.acc with [] -> None | s :: _ -> Some s

let perturbed_flags t = Array.copy t.perturbed

let restore ~n_cells ~flags ~samples =
  if Array.length flags <> n_cells then invalid_arg "Dynamics.restore: flag count mismatch";
  let t = create ~n_cells in
  Array.blit flags 0 t.perturbed 0 n_cells;
  t.n_perturbed <- Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 flags;
  t.acc <- List.rev samples;
  t
