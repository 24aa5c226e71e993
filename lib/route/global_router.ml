module I = Spr_util.Interval

(* Candidate spine columns ordered by distance from the bounding-box
   center, tie broken toward the left. *)
(* Default bound on spine columns probed per attempt; electrically any
   column inside the window serves, so a bounded nearest-the-center scan
   keeps per-move cost flat on wide nets. Desperate callers (the
   sequential improvement loop) raise it to the full die width. *)
let default_max_candidates = 24

(* Iterate candidate spine columns by distance from the bounding-box
   center (ties toward the left) without building a list: center,
   center-1, center+1, center-2, ... clipped to the window. *)
let fold_candidates ~max_candidates ~lo ~hi ~min_col ~max_col ~margin f =
  let lo = max min_col (lo - margin) and hi = min max_col (hi + margin) in
  let center = (lo + hi) / 2 in
  let rec loop dist tried =
    if tried >= max_candidates then None
    else begin
      let left = center - dist and right = center + dist in
      let in_window c = c >= lo && c <= hi in
      if (not (in_window left)) && not (in_window right) then None
      else begin
        match (if in_window left then f left else None) with
        | Some _ as r -> r
        | None ->
          let tried = tried + (if in_window left then 1 else 0) in
          if tried >= max_candidates then None
          else begin
            match (if dist > 0 && in_window right then f right else None) with
            | Some _ as r -> r
            | None ->
              let tried = tried + (if dist > 0 && in_window right then 1 else 0) in
              loop (dist + 1) tried
          end
      end
    end
  in
  loop 0 0

(* Pin bounding box: ((clo, chi), (xlo, xhi)), or None below two pins. *)
let pin_bbox st net =
  let place = Route_state.place st in
  let pins = Spr_layout.Placement.net_pin_positions place net in
  match pins with
  | [] | [ _ ] -> None
  | _ ->
    let chans = List.map fst pins and cols = List.map snd pins in
    let clo = List.fold_left min max_int chans and chi = List.fold_left max min_int chans in
    let xlo = List.fold_left min max_int cols and xhi = List.fold_left max min_int cols in
    Some ((clo, chi), (xlo, xhi))

(* The search half of [attempt]: the spine the net would claim, if any. *)
let plan ?(margin = 2) ?(max_candidates = default_max_candidates) st net =
  let arch = Route_state.arch st in
  match pin_bbox st net with
  | None -> None
  | Some ((clo, chi), (xlo, xhi)) ->
    let span = I.make clo chi in
    let try_col x =
      let rec try_vtrack vt =
        if vt >= arch.Spr_arch.Arch.vtracks then None
        else begin
          let segs = Spr_arch.Arch.vsegments arch ~col:x ~vtrack:vt in
          match Spr_arch.Arch.find_cover segs span with
          | Some (slo, shi) when Route_state.vrun_free st ~col:x ~vtrack:vt ~slo ~shi ->
            Some
              {
                Route_state.v_col = x;
                v_vtrack = vt;
                v_slo = slo;
                v_shi = shi;
                v_span = span;
              }
          | Some _ | None -> try_vtrack (vt + 1)
        end
      in
      try_vtrack 0
    in
    fold_candidates ~max_candidates ~lo:xlo ~hi:xhi ~min_col:0
      ~max_col:(arch.Spr_arch.Arch.cols - 1) ~margin try_col

let attempt ?margin ?max_candidates st j net =
  match plan ?margin ?max_candidates st net with
  | Some vr ->
    Route_state.claim_global st j net vr;
    true
  | None -> false
