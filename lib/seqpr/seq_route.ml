module Rs = Spr_route.Route_state
module Router = Spr_route.Router
module I = Spr_util.Interval

(* Victims blocking the failed net's cheapest horizontal run: owners on
   the track whose covering run has the fewest distinct blockers. *)
let detail_blockers st ~channel ~span =
  let arch = Rs.arch st in
  let best = ref None in
  for track = 0 to arch.Spr_arch.Arch.tracks - 1 do
    let segs = Spr_arch.Arch.hsegments arch ~channel ~track in
    match Spr_arch.Arch.find_cover segs span with
    | None -> ()
    | Some (slo, shi) ->
      let owners = ref [] in
      for s = slo to shi do
        let o = Rs.hseg_owner st ~channel ~track ~seg:s in
        if o <> -1 && not (List.mem o !owners) then owners := o :: !owners
      done;
      let n = List.length !owners in
      (match !best with
      | Some (bn, _) when bn <= n -> ()
      | Some _ | None -> best := Some (n, !owners))
  done;
  match !best with Some (_, owners) -> owners | None -> []

(* Victims blocking the cheapest spine among several candidate columns
   around the net's bbox center: pick the (column, vtrack) whose covering
   run has the fewest distinct blocking nets. *)
let global_blockers st net =
  let place = Rs.place st in
  let arch = Rs.arch st in
  let pins = Spr_layout.Placement.net_pin_positions place net in
  if List.length pins < 2 then []
  else begin
    let chans = List.map fst pins and cols = List.map snd pins in
    let clo = List.fold_left min max_int chans and chi = List.fold_left max min_int chans in
    let xlo = List.fold_left min max_int cols and xhi = List.fold_left max min_int cols in
    let span = I.make clo chi in
    let clamp x = max 0 (min (arch.Spr_arch.Arch.cols - 1) x) in
    let center = clamp ((xlo + xhi) / 2) in
    let candidates =
      List.sort_uniq compare
        (List.map clamp [ center - 4; center - 2; center - 1; center; center + 1; center + 2; center + 4 ])
    in
    let best = ref None in
    List.iter
      (fun col ->
        for vtrack = 0 to arch.Spr_arch.Arch.vtracks - 1 do
          let segs = Spr_arch.Arch.vsegments arch ~col ~vtrack in
          match Spr_arch.Arch.find_cover segs span with
          | None -> ()
          | Some (slo, shi) ->
            let owners = ref [] in
            for s = slo to shi do
              let o = Rs.vseg_owner st ~col ~vtrack ~seg:s in
              if o <> -1 && not (List.mem o !owners) then owners := o :: !owners
            done;
            let n = List.length !owners in
            (match !best with
            | Some (bn, _) when bn <= n -> ()
            | Some _ | None -> best := Some (n, !owners))
        done)
      candidates;
    match !best with Some (_, owners) -> owners | None -> []
  end

(* Rip-up-and-retry iterations after the first routing. *)
let max_iters = 25

let run ?(router = Router.default_config) ?(should_stop = fun () -> false) ~rng st =
  let uncapped = { router with Router.retry_cap = max_int } in
  Router.route_all ~config:uncapped ~passes:3 st;
  let arch = Rs.arch st in
  let j = Spr_util.Journal.create () in
  let iter = ref 0 in
  while (not (Rs.fully_routed st)) && !iter < max_iters && not (should_stop ()) do
    incr iter;
    (* Collect victims for every currently failed net, rip them up
       together with the failed nets, and re-attempt longest first. *)
    let victims = ref [] in
    List.iter (fun net -> victims := global_blockers st net @ !victims) (Rs.u_g st);
    for channel = 0 to arch.Spr_arch.Arch.n_channels - 1 do
      List.iter
        (fun net ->
          match List.assoc_opt channel (Rs.h_demands st net) with
          | Some span -> victims := detail_blockers st ~channel ~span @ !victims
          | None -> ())
        (Rs.u_d st channel)
    done;
    let victims = List.sort_uniq compare !victims in
    (* Drop a random subset on later iterations to escape rip/re-route
       cycles. *)
    let victims =
      if !iter <= 2 then victims
      else List.filter (fun _ -> Spr_util.Rng.float rng 1.0 < 0.7) victims
    in
    List.iter (fun net -> Rs.rip_up st j net) victims;
    (* Failed nets must re-search even where nothing was freed, because
       the margin below widens their search space. *)
    List.iter (fun net -> Rs.force_retry st net) (Rs.u_g st);
    for channel = 0 to arch.Spr_arch.Arch.n_channels - 1 do
      List.iter (fun net -> Rs.force_retry st net) (Rs.u_d st channel)
    done;
    (* Escalate the spine search margin as iterations go by: a desperate
       net may take a feedthrough far from its bounding box. *)
    let widened =
      {
        uncapped with
        Router.spine_margin = uncapped.Router.spine_margin + (2 * !iter);
        Router.spine_candidates = max_int;
      }
    in
    ignore (Router.reroute ~config:widened st j : int list);
    ignore (Router.reroute ~config:widened st j : int list);
    Spr_util.Journal.commit j
  done
