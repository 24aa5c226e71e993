module I = Spr_util.Interval

let best_track ?(antifuse_weight = 3.0) st ~channel ~span =
  let arch = Route_state.arch st in
  let best = ref None in
  for track = 0 to arch.Spr_arch.Arch.tracks - 1 do
    let segs = Spr_arch.Arch.hsegments arch ~channel ~track in
    match Spr_arch.Arch.find_cover segs span with
    | Some (slo, shi) when Route_state.hrun_free st ~channel ~track ~slo ~shi ->
      let covered = segs.(shi).I.hi - segs.(slo).I.lo + 1 in
      let wastage = covered - I.length span in
      let n_segs = shi - slo + 1 in
      let cost = float_of_int wastage +. (antifuse_weight *. float_of_int n_segs) in
      (match !best with
      | Some (_, _, _, c) when c <= cost -> ()
      | Some _ | None -> best := Some (track, slo, shi, cost))
    | Some _ | None -> ()
  done;
  !best

(* The search half of [attempt]: the run the net's demand in [channel]
   would claim, if any. *)
let plan ?antifuse_weight st ~net ~channel =
  match List.assoc_opt channel (Route_state.h_demands st net) with
  | None -> None
  | Some span -> (
    match best_track ?antifuse_weight st ~channel ~span with
    | None -> None
    | Some (track, slo, shi, _) ->
      Some
        { Route_state.h_channel = channel; h_track = track; h_slo = slo; h_shi = shi; h_span = span })

let attempt ?antifuse_weight st j ~net ~channel =
  match plan ?antifuse_weight st ~net ~channel with
  | None -> false
  | Some hr ->
    Route_state.claim_detail st j net hr;
    true
