module I = Spr_util.Interval
module Rs = Route_state
module Report = Spr_obs.Report

let collect st =
  let arch = Rs.arch st in
  let place = Rs.place st in
  let nl = Rs.netlist st in
  let open Spr_arch in
  let h_wire = ref 0 and v_wire = ref 0 in
  let h_fuse = ref 0 and v_fuse = ref 0 and x_fuse = ref 0 in
  let routed = ref 0 in
  for net = 0 to Spr_netlist.Netlist.n_nets nl - 1 do
    if Rs.is_fully_routed st net then begin
      incr routed;
      let hroutes = Rs.h_routes st net in
      List.iter
        (fun (ch, (hr : Rs.hroute)) ->
          let segs = Arch.hsegments arch ~channel:ch ~track:hr.Rs.h_track in
          for s = hr.Rs.h_slo to hr.Rs.h_shi do
            h_wire := !h_wire + I.length segs.(s)
          done;
          h_fuse := !h_fuse + (hr.Rs.h_shi - hr.Rs.h_slo))
        hroutes;
      (match Rs.global_route st net with
      | None -> ()
      | Some vr ->
        let segs = Arch.vsegments arch ~col:vr.Rs.v_col ~vtrack:vr.Rs.v_vtrack in
        for s = vr.Rs.v_slo to vr.Rs.v_shi do
          v_wire := !v_wire + I.length segs.(s)
        done;
        v_fuse := !v_fuse + (vr.Rs.v_shi - vr.Rs.v_slo);
        (* one spine tap per channel the net routes in *)
        x_fuse := !x_fuse + List.length hroutes);
      (* one cross antifuse per pin tap *)
      x_fuse := !x_fuse + List.length (Spr_layout.Placement.net_pin_positions place net)
    end
  done;
  let channels =
    List.init arch.Arch.n_channels (fun ch ->
        let used_len = ref 0 and total_len = ref 0 in
        let used_segs = ref 0 and total_segs = ref 0 in
        for track = 0 to arch.Arch.tracks - 1 do
          let segs = Arch.hsegments arch ~channel:ch ~track in
          Array.iteri
            (fun s seg ->
              incr total_segs;
              total_len := !total_len + I.length seg;
              if Rs.hseg_owner st ~channel:ch ~track ~seg:s <> -1 then begin
                incr used_segs;
                used_len := !used_len + I.length seg
              end)
            segs
        done;
        {
          Report.ch_index = ch;
          ch_used_len = !used_len;
          ch_total_len = !total_len;
          ch_used_segments = !used_segs;
          ch_total_segments = !total_segs;
        })
  in
  let v_used = ref 0 and v_total = ref 0 in
  for col = 0 to arch.Arch.cols - 1 do
    for vt = 0 to arch.Arch.vtracks - 1 do
      let segs = Arch.vsegments arch ~col ~vtrack:vt in
      Array.iteri
        (fun s _ ->
          incr v_total;
          if Rs.vseg_owner st ~col ~vtrack:vt ~seg:s <> -1 then incr v_used)
        segs
    done
  done;
  {
    Report.rt_routed_nets = !routed;
    rt_unrouted_nets = Rs.d_count st;
    rt_h_wirelength = !h_wire;
    rt_v_wirelength = !v_wire;
    rt_h_antifuses = !h_fuse;
    rt_v_antifuses = !v_fuse;
    rt_x_antifuses = !x_fuse;
    rt_vertical_used = !v_used;
    rt_vertical_total = !v_total;
    rt_channels = channels;
  }

let pp ppf (t : Report.route_summary) =
  Format.fprintf ppf "routed %d nets (%d unrouted)@." t.rt_routed_nets t.rt_unrouted_nets;
  Format.fprintf ppf "wirelength: %d col-units horizontal, %d channel-units vertical@."
    t.rt_h_wirelength t.rt_v_wirelength;
  Format.fprintf ppf "antifuses: %d horizontal + %d vertical + %d cross = %d@."
    t.rt_h_antifuses t.rt_v_antifuses t.rt_x_antifuses (Report.total_antifuses t);
  Format.fprintf ppf "vertical segments used: %d/%d@." t.rt_vertical_used t.rt_vertical_total;
  List.iter
    (fun (c : Report.channel_row) ->
      Format.fprintf ppf "channel %2d: %4d/%4d col-units (%.0f%%), %d/%d segments@."
        c.ch_index c.ch_used_len c.ch_total_len
        (100.0 *. float_of_int c.ch_used_len /. float_of_int (max 1 c.ch_total_len))
        c.ch_used_segments c.ch_total_segments)
    t.rt_channels
