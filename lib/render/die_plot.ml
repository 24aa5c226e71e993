module Rs = Spr_route.Route_state
module P = Spr_layout.Placement
module Arch = Spr_arch.Arch
module Nl = Spr_netlist.Netlist
module I = Spr_util.Interval

(* Geometry: SVG y grows downward, so the fabric is stacked from the top
   channel (index rows) down to channel 0, with logic rows interleaved. *)
type geom = {
  margin : float;
  col_w : float;
  row_h : float;
  track_pitch : float;
  chan_pad : float;
  chan_h : float;
  rows : int;
}

let geom_of arch =
  let track_pitch = 2.0 in
  let chan_pad = 3.0 in
  {
    margin = 24.0;
    col_w = 14.0;
    row_h = 10.0;
    track_pitch;
    chan_pad;
    chan_h = (float_of_int arch.Arch.tracks *. track_pitch) +. (2.0 *. chan_pad);
    rows = arch.Arch.rows;
  }

let x_of g col = g.margin +. (float_of_int col *. g.col_w)

(* Top edge of channel k (channel k lies below row k). *)
let y_channel_top g k =
  g.margin +. (float_of_int (g.rows - k) *. (g.chan_h +. g.row_h))

let y_row_top g r = y_channel_top g (r + 1) +. g.chan_h

let y_track g k t = y_channel_top g k +. g.chan_pad +. (float_of_int t *. g.track_pitch)

let die_width g cols = (2.0 *. g.margin) +. (float_of_int cols *. g.col_w)

let die_height g = (2.0 *. g.margin) +. (float_of_int (g.rows + 1) *. (g.chan_h +. g.row_h))

(* Distinguishable net colors from a hash of the net id. *)
let net_color net =
  let hues = [| 210; 120; 30; 270; 0; 180; 330; 60; 240; 150 |] in
  let h = hues.(net mod Array.length hues) in
  let l = 30 + (net * 7 mod 25) in
  Printf.sprintf "hsl(%d,65%%,%d%%)" h l

let kind_fill = function
  | Spr_netlist.Cell_kind.Input -> "#9ecae1"
  | Spr_netlist.Cell_kind.Output -> "#fdae6b"
  | Spr_netlist.Cell_kind.Comb -> "#c7e9c0"
  | Spr_netlist.Cell_kind.Seq -> "#bcbddc"

let to_svg ?(highlight = []) ?(show_free_segments = true) st =
  let arch = Rs.arch st in
  let place = Rs.place st in
  let nl = Rs.netlist st in
  let g = geom_of arch in
  let svg = Svg.create ~width:(die_width g arch.Arch.cols) ~height:(die_height g) in
  Svg.comment svg
    (Printf.sprintf "die plot: %dx%d fabric, %d channels x %d tracks" arch.Arch.rows
       arch.Arch.cols arch.Arch.n_channels arch.Arch.tracks);
  (* channel backgrounds *)
  for k = 0 to arch.Arch.n_channels - 1 do
    Svg.rect svg ~x:(x_of g 0) ~y:(y_channel_top g k)
      ~w:(float_of_int arch.Arch.cols *. g.col_w)
      ~h:g.chan_h ~fill:"#f7f7f7" ()
  done;
  (* free segments: light gray dashes showing the segmentation *)
  if show_free_segments then
    for k = 0 to arch.Arch.n_channels - 1 do
      for t = 0 to arch.Arch.tracks - 1 do
        let segs = Arch.hsegments arch ~channel:k ~track:t in
        Array.iteri
          (fun s seg ->
            if Rs.hseg_owner st ~channel:k ~track:t ~seg:s = -1 then begin
              let y = y_track g k t in
              Svg.line svg
                ~x1:(x_of g seg.I.lo +. 1.0)
                ~y1:y
                ~x2:(x_of g seg.I.hi +. g.col_w -. 1.0)
                ~y2:y ~stroke:"#dddddd" ~stroke_width:0.7 ()
            end)
          segs
      done
    done;
  (* logic modules *)
  Array.iter
    (fun cell ->
      let slot = P.slot_of place cell.Nl.id in
      Svg.rect svg
        ~x:(x_of g slot.P.col +. 1.0)
        ~y:(y_row_top g slot.P.row +. 1.0)
        ~w:(g.col_w -. 2.0) ~h:(g.row_h -. 2.0) ~rx:1.0 ~stroke:"#888888" ~stroke_width:0.4
        ~fill:(kind_fill cell.Nl.kind) ())
    (Nl.cells nl);
  (* routed nets *)
  let draw_net net =
    let hot = List.mem net highlight in
    let stroke = if hot then "#d62728" else net_color net in
    let width = if hot then 2.2 else 1.1 in
    (* horizontal claimed runs *)
    List.iter
      (fun (ch, (hr : Rs.hroute)) ->
        let segs = Arch.hsegments arch ~channel:ch ~track:hr.Rs.h_track in
        let y = y_track g ch hr.Rs.h_track in
        for s = hr.Rs.h_slo to hr.Rs.h_shi do
          Svg.line svg
            ~x1:(x_of g segs.(s).I.lo +. 1.0)
            ~y1:y
            ~x2:(x_of g segs.(s).I.hi +. g.col_w -. 1.0)
            ~y2:y ~stroke ~stroke_width:width ();
          (* horizontal antifuse between consecutive claimed segments *)
          if s > hr.Rs.h_slo then
            Svg.circle svg ~cx:(x_of g segs.(s).I.lo +. 0.5) ~cy:y ~r:1.2 ~fill:stroke ()
        done)
      (Rs.h_routes st net);
    (* vertical spine *)
    (match Rs.global_route st net with
    | None -> ()
    | Some vr ->
      let x = x_of g vr.Rs.v_col +. (g.col_w /. 2.0) in
      let y1 = y_channel_top g vr.Rs.v_span.I.hi +. g.chan_pad in
      let y2 = y_channel_top g vr.Rs.v_span.I.lo +. g.chan_h -. g.chan_pad in
      Svg.line svg ~x1:x ~y1 ~x2:x ~y2 ~stroke ~stroke_width:width ~opacity:0.85 ());
    (* pin taps *)
    List.iter
      (fun (ch, col) ->
        match List.assoc_opt ch (Rs.h_routes st net) with
        | None -> ()
        | Some hr ->
          let y = y_track g ch hr.Rs.h_track in
          let x = x_of g col +. (g.col_w /. 2.0) in
          Svg.circle svg ~cx:x ~cy:y ~r:(if hot then 1.6 else 1.0) ~fill:stroke ())
      (P.net_pin_positions place net)
  in
  for net = 0 to Nl.n_nets nl - 1 do
    if not (List.mem net highlight) then draw_net net
  done;
  (* highlighted nets last so they sit on top *)
  List.iter (fun net -> if net >= 0 && net < Nl.n_nets nl then draw_net net) highlight;
  (* frame and caption *)
  Svg.rect svg ~x:(g.margin /. 2.0) ~y:(g.margin /. 2.0)
    ~w:(die_width g arch.Arch.cols -. g.margin)
    ~h:(die_height g -. g.margin)
    ~stroke:"#444444" ~stroke_width:1.0 ();
  Svg.text svg ~x:(g.margin /. 2.0)
    ~y:(die_height g -. 4.0)
    ~size:9.0
    (Printf.sprintf "%d cells, %d/%d nets routed" (Nl.n_cells nl)
       (Rs.n_routable st - Rs.d_count st)
       (Rs.n_routable st));
  svg

let save_svg ?highlight ?show_free_segments st path =
  Svg.save (to_svg ?highlight ?show_free_segments st) path

let to_ascii st =
  let arch = Rs.arch st in
  let place = Rs.place st in
  let nl = Rs.netlist st in
  let buf = Buffer.create 1024 in
  let kind_char = function
    | Spr_netlist.Cell_kind.Input -> 'i'
    | Spr_netlist.Cell_kind.Output -> 'o'
    | Spr_netlist.Cell_kind.Comb -> 'c'
    | Spr_netlist.Cell_kind.Seq -> 's'
  in
  (* channel utilization: claimed segment length / total *)
  let channels = Array.of_list (Spr_route.Route_stats.collect st).Spr_obs.Report.rt_channels in
  let utilization k =
    let c = channels.(k) in
    if c.Spr_obs.Report.ch_total_len = 0 then 0.0
    else float_of_int c.Spr_obs.Report.ch_used_len /. float_of_int c.Spr_obs.Report.ch_total_len
  in
  let bar frac =
    let n = int_of_float (frac *. 20.0 +. 0.5) in
    String.make n '#' ^ String.make (20 - n) '.'
  in
  for row = arch.Arch.rows - 1 downto -1 do
    (* the channel above this row position *)
    let k = row + 1 in
    if k <= arch.Arch.rows then begin
      let u = utilization k in
      Buffer.add_string buf (Printf.sprintf "ch%-2d [%s] %3.0f%%\n" k (bar u) (100.0 *. u))
    end;
    if row >= 0 then begin
      Buffer.add_string buf "      ";
      for col = 0 to arch.Arch.cols - 1 do
        let ch =
          match P.cell_at place { P.row; col } with
          | None -> '.'
          | Some c -> kind_char (Nl.cell nl c).Nl.kind
        in
        Buffer.add_char buf ch
      done;
      Buffer.add_char buf '\n'
    end
  done;
  Buffer.add_string buf
    (Printf.sprintf "%d cells; %d/%d nets routed (G=%d D=%d)\n" (Nl.n_cells nl)
       (Rs.n_routable st - Rs.d_count st)
       (Rs.n_routable st) (Rs.g_count st) (Rs.d_count st));
  Buffer.contents buf

let critical_nets sta st =
  let nl = Rs.netlist st in
  let path = Spr_timing.Sta.critical_path sta in
  let rec nets_along = function
    | a :: (b :: _ as rest) -> (
      (* the net from a to b is a's output net *)
      match Nl.out_net nl a with
      | Some net when List.mem b (Nl.fanout_cells nl a) -> net :: nets_along rest
      | Some _ | None -> nets_along rest)
    | [ _ ] | [] -> []
  in
  List.sort_uniq compare (nets_along path)
