module Rs = Spr_route.Route_state
module P = Spr_layout.Placement
module Arch = Spr_arch.Arch
module Nl = Spr_netlist.Netlist
module I = Spr_util.Interval

(* Independent recomputation of the per-channel demand spans: group the
   net's pins by channel into column spans; a chosen spine column extends
   every span so the detailed route can reach the spine. Deliberately
   re-derived here rather than shared with the router — the whole point
   is a second opinion. *)
let expected_demands pins spine_col =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (ch, col) ->
      match Hashtbl.find_opt tbl ch with
      | None -> Hashtbl.replace tbl ch (col, col)
      | Some (lo, hi) -> Hashtbl.replace tbl ch (min lo col, max hi col))
    pins;
  Hashtbl.fold
    (fun ch (lo, hi) acc ->
      let lo, hi =
        match spine_col with None -> (lo, hi) | Some x -> (min lo x, max hi x)
      in
      (ch, I.make lo hi) :: acc)
    tbl []
  |> List.sort compare

let run st =
  let place = Rs.place st in
  let arch = Rs.arch st in
  let nl = Rs.netlist st in
  let findings = ref [] in
  let report ~subject fmt =
    Printf.ksprintf
      (fun detail -> findings := { Finding.auditor = "route"; subject; detail } :: !findings)
      fmt
  in
  let net_subject net = Printf.sprintf "net %d" net in
  let n_nets = Nl.n_nets nl in
  let n_channels = arch.Arch.n_channels in
  (* --- pass 1: per-net route records vs the fabric segmentation --- *)
  let listed_h = Hashtbl.create 256 in
  let listed_v = Hashtbl.create 256 in
  let list_seg tbl key net what =
    match Hashtbl.find_opt tbl key with
    | Some other when other <> net ->
      report ~subject:(net_subject net) "%s conflicts with net %d" what other
    | _ -> Hashtbl.replace tbl key net
  in
  for net = 0 to n_nets - 1 do
    let subject = net_subject net in
    (match Rs.global_route st net with
    | None -> ()
    | Some vr ->
      if vr.Rs.v_col < 0 || vr.Rs.v_col >= arch.Arch.cols then
        report ~subject "spine column %d outside the fabric" vr.Rs.v_col
      else if vr.Rs.v_vtrack < 0 || vr.Rs.v_vtrack >= arch.Arch.vtracks then
        report ~subject "spine vtrack %d out of range" vr.Rs.v_vtrack
      else begin
        let segs = Arch.vsegments arch ~col:vr.Rs.v_col ~vtrack:vr.Rs.v_vtrack in
        if vr.Rs.v_slo < 0 || vr.Rs.v_shi >= Array.length segs || vr.Rs.v_slo > vr.Rs.v_shi
        then
          report ~subject "spine run [%d..%d] does not fit the %d-segment vtrack"
            vr.Rs.v_slo vr.Rs.v_shi (Array.length segs)
        else begin
          let covered = I.make segs.(vr.Rs.v_slo).I.lo segs.(vr.Rs.v_shi).I.hi in
          if not (I.covers covered vr.Rs.v_span) then
            report ~subject "claimed vertical run %s does not cover spine span %s"
              (I.to_string covered) (I.to_string vr.Rs.v_span);
          for s = vr.Rs.v_slo to vr.Rs.v_shi do
            list_seg listed_v (vr.Rs.v_col, vr.Rs.v_vtrack, s) net
              (Printf.sprintf "vertical segment (%d,%d,%d)" vr.Rs.v_col vr.Rs.v_vtrack s)
          done
        end
      end);
    List.iter
      (fun (ch, hr) ->
        if ch <> hr.Rs.h_channel then
          report ~subject "hroute keyed under channel %d but records channel %d" ch
            hr.Rs.h_channel;
        if hr.Rs.h_channel < 0 || hr.Rs.h_channel >= n_channels then
          report ~subject "hroute channel %d out of range" hr.Rs.h_channel
        else if hr.Rs.h_track < 0 || hr.Rs.h_track >= arch.Arch.tracks then
          report ~subject "hroute track %d out of range" hr.Rs.h_track
        else begin
          let segs = Arch.hsegments arch ~channel:hr.Rs.h_channel ~track:hr.Rs.h_track in
          if hr.Rs.h_slo < 0 || hr.Rs.h_shi >= Array.length segs || hr.Rs.h_slo > hr.Rs.h_shi
          then
            report ~subject "hroute run [%d..%d] does not fit the %d-segment track"
              hr.Rs.h_slo hr.Rs.h_shi (Array.length segs)
          else begin
            let covered = I.make segs.(hr.Rs.h_slo).I.lo segs.(hr.Rs.h_shi).I.hi in
            if not (I.covers covered hr.Rs.h_span) then
              report ~subject "channel %d run %s does not cover demand span %s"
                hr.Rs.h_channel (I.to_string covered) (I.to_string hr.Rs.h_span);
            for s = hr.Rs.h_slo to hr.Rs.h_shi do
              list_seg listed_h (hr.Rs.h_channel, hr.Rs.h_track, s) net
                (Printf.sprintf "horizontal segment (%d,%d,%d)" hr.Rs.h_channel hr.Rs.h_track
                   s)
            done
          end
        end)
      (Rs.h_routes st net)
  done;
  (* --- pass 2: owner arrays vs the listed segments, both directions --- *)
  for ch = 0 to n_channels - 1 do
    for tr = 0 to arch.Arch.tracks - 1 do
      let segs = Arch.hsegments arch ~channel:ch ~track:tr in
      for s = 0 to Array.length segs - 1 do
        let owner = Rs.hseg_owner st ~channel:ch ~track:tr ~seg:s in
        match owner, Hashtbl.find_opt listed_h (ch, tr, s) with
        | -1, None -> ()
        | -1, Some n ->
          report ~subject:(net_subject n) "lists horizontal segment (%d,%d,%d) but it is free"
            ch tr s
        | o, None ->
          report
            ~subject:(Printf.sprintf "h segment (%d,%d,%d)" ch tr s)
            "owned by net %d but listed by no route" o
        | o, Some n when o <> n ->
          report
            ~subject:(Printf.sprintf "h segment (%d,%d,%d)" ch tr s)
            "owned by net %d but listed by net %d" o n
        | _, Some _ -> ()
      done
    done
  done;
  for col = 0 to arch.Arch.cols - 1 do
    for vt = 0 to arch.Arch.vtracks - 1 do
      let segs = Arch.vsegments arch ~col ~vtrack:vt in
      for s = 0 to Array.length segs - 1 do
        let owner = Rs.vseg_owner st ~col ~vtrack:vt ~seg:s in
        match owner, Hashtbl.find_opt listed_v (col, vt, s) with
        | -1, None -> ()
        | -1, Some n ->
          report ~subject:(net_subject n) "lists vertical segment (%d,%d,%d) but it is free"
            col vt s
        | o, None ->
          report
            ~subject:(Printf.sprintf "v segment (%d,%d,%d)" col vt s)
            "owned by net %d but listed by no route" o
        | o, Some n when o <> n ->
          report
            ~subject:(Printf.sprintf "v segment (%d,%d,%d)" col vt s)
            "owned by net %d but listed by net %d" o n
        | _, Some _ -> ()
      done
    done
  done;
  (* --- pass 3: mirrors vs an independent recomputation --- *)
  let ug_set = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace ug_set n ()) (Rs.u_g st);
  let ud_sets =
    Array.init n_channels (fun ch ->
        let tbl = Hashtbl.create 16 in
        List.iter (fun n -> Hashtbl.replace tbl n ()) (Rs.u_d st ch);
        tbl)
  in
  let expected_g = ref 0 and expected_d = ref 0 in
  let ud_census = Array.make n_channels 0 in
  for net = 0 to n_nets - 1 do
    let subject = net_subject net in
    let routable_expect = Array.length (Nl.net nl net).Nl.sinks >= 1 in
    if Rs.routable st net <> routable_expect then
      report ~subject "routable flag %b but the net has %d sinks" (Rs.routable st net)
        (Array.length (Nl.net nl net).Nl.sinks);
    if not routable_expect then begin
      if Rs.in_ug_flag st net || Rs.missing_channels st net <> []
         || Rs.global_route st net <> None
         || Rs.h_routes st net <> []
         || Rs.d_flag st net
      then report ~subject "unroutable net carries routing state"
    end
    else begin
      let pins = P.net_pin_positions place net in
      let chans = List.sort_uniq compare (List.map fst pins) in
      let needs_v_expect = List.length chans > 1 in
      if Rs.needs_global st net <> needs_v_expect then
        report ~subject "needs_v mirror %b but pins span %d channel(s)"
          (Rs.needs_global st net) (List.length chans);
      let vr = Rs.global_route st net in
      let in_ug_expect = needs_v_expect && vr = None in
      if Rs.in_ug_flag st net <> in_ug_expect then
        report ~subject "in_ug mirror %b, recomputation says %b" (Rs.in_ug_flag st net)
          in_ug_expect;
      if Hashtbl.mem ug_set net <> in_ug_expect then
        report ~subject "U_G table membership %b, recomputation says %b"
          (Hashtbl.mem ug_set net) in_ug_expect;
      if in_ug_expect then incr expected_g;
      let missing_expect =
        if in_ug_expect then begin
          (* A globally unrouted net must hold no detail state at all. *)
          if Rs.h_demands st net <> [] || Rs.h_routes st net <> []
             || Rs.missing_channels st net <> []
          then report ~subject "globally unrouted but carries detail state";
          []
        end
        else begin
          (match vr with
          | None -> ()
          | Some v ->
            let clo = List.fold_left min max_int chans
            and chi = List.fold_left max min_int chans in
            if not (I.covers v.Rs.v_span (I.make clo chi)) then
              report ~subject "spine span %s does not cover pin channels [%d..%d]"
                (I.to_string v.Rs.v_span) clo chi);
          let demands_expect =
            expected_demands pins (Option.map (fun v -> v.Rs.v_col) vr)
          in
          let demands = List.sort compare (Rs.h_demands st net) in
          if demands <> demands_expect then
            report ~subject "demands stale: recorded %s, recomputed %s"
              (String.concat ","
                 (List.map (fun (ch, sp) -> Printf.sprintf "%d:%s" ch (I.to_string sp)) demands))
              (String.concat ","
                 (List.map
                    (fun (ch, sp) -> Printf.sprintf "%d:%s" ch (I.to_string sp))
                    demands_expect));
          let routed_chs = List.map fst (Rs.h_routes st net) in
          List.iter
            (fun ch ->
              if not (List.mem_assoc ch demands_expect) then
                report ~subject "hroute in undemanded channel %d" ch)
            routed_chs;
          (* Span recorded on each completed route must match its demand. *)
          List.iter
            (fun (ch, hr) ->
              match List.assoc_opt ch demands_expect with
              | Some span when hr.Rs.h_span <> span ->
                report ~subject "channel %d hroute span %s stale (demand is %s)" ch
                  (I.to_string hr.Rs.h_span) (I.to_string span)
              | _ -> ())
            (Rs.h_routes st net);
          List.filter_map
            (fun (ch, _) -> if List.mem ch routed_chs then None else Some ch)
            demands_expect
        end
      in
      let missing = List.sort compare (Rs.missing_channels st net) in
      if missing <> missing_expect then
        report ~subject "missing mirror [%s], recomputation says [%s]"
          (String.concat ";" (List.map string_of_int missing))
          (String.concat ";" (List.map string_of_int missing_expect));
      List.iter
        (fun ch ->
          if ch >= 0 && ch < n_channels then begin
            ud_census.(ch) <- ud_census.(ch) + 1;
            if not (Hashtbl.mem ud_sets.(ch) net) then
              report ~subject "awaits channel %d but is absent from its U_D table" ch
          end
          else report ~subject "missing channel %d out of range" ch)
        missing_expect;
      let d_expect = in_ug_expect || missing_expect <> [] in
      if Rs.d_flag st net <> d_expect then
        report ~subject "d_flag mirror %b, recomputation says %b" (Rs.d_flag st net) d_expect;
      if d_expect then incr expected_d
    end
  done;
  if Rs.g_count st <> !expected_g then
    report ~subject:"counters" "G counter %d, recomputation says %d" (Rs.g_count st)
      !expected_g;
  if Rs.d_count st <> !expected_d then
    report ~subject:"counters" "D counter %d, recomputation says %d" (Rs.d_count st)
      !expected_d;
  (* U_D tables must not hold extra members beyond the census. *)
  Array.iteri
    (fun ch tbl ->
      let size = Hashtbl.length tbl in
      if size <> ud_census.(ch) then
        report
          ~subject:(Printf.sprintf "channel %d" ch)
          "U_D table holds %d nets, recomputation says %d" size ud_census.(ch))
    ud_sets;
  (* --- pass 4: the retry index holds every net the memo would retry --- *)
  let index_holds queue name members pending =
    List.iter
      (fun net ->
        if pending net && not (Rs.candidate st queue net) then
          report ~subject:(net_subject net) "attempt pending in %s but not a retry candidate"
            name)
      members
  in
  index_holds Rs.Ug "U_G" (Rs.u_g st) (Rs.global_attempt_pending st);
  for ch = 0 to n_channels - 1 do
    index_holds (Rs.Ud ch)
      (Printf.sprintf "channel %d's U_D" ch)
      (Rs.u_d st ch)
      (fun net -> Rs.detail_attempt_pending st net ~channel:ch)
  done;
  List.rev !findings
