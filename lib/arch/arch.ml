type t = {
  rows : int;
  cols : int;
  tracks : int;
  vtracks : int;
  n_channels : int;
  hscheme : Segmentation.scheme;
  hsegs : Spr_util.Interval.t array array array;
  vsegs : Spr_util.Interval.t array array array;
  avg_hseg : float;
}

(* The first half of a column's vertical tracks (rounded up) are one
   segment spanning every channel; the rest are cut into segments of
   half the channels, with the cut positions staggered by column and
   track so that spine failures at one column can be recovered at a
   neighbour. *)
let vertical_track ~n_channels ~vtracks ~col ~vtrack =
  if vtrack < (vtracks + 1) / 2 then [| Spr_util.Interval.make 0 (n_channels - 1) |]
  else begin
    let span = max 2 (n_channels / 2) in
    let offset = (col + (vtrack * 2)) mod span in
    let segs = ref [] in
    let pos = ref 0 in
    let first = span - offset in
    while !pos < n_channels do
      let len = if !pos = 0 then first else span in
      let len = min len (n_channels - !pos) in
      segs := Spr_util.Interval.make !pos (!pos + len - 1) :: !segs;
      pos := !pos + len
    done;
    Array.of_list (List.rev !segs)
  end

let create ~rows ~cols ~tracks ?(hscheme = Segmentation.Actel_like) ?(vtracks = 5) () =
  if rows < 1 || cols < 2 || tracks < 1 || vtracks < 1 then
    invalid_arg "Arch.create: non-positive dimensions";
  let n_channels = rows + 1 in
  let hsegs =
    Array.init n_channels (fun channel ->
        Array.init tracks (fun track -> Segmentation.track hscheme ~cols ~channel ~track))
  in
  let vsegs =
    Array.init cols (fun col ->
        Array.init vtracks (fun vtrack -> vertical_track ~n_channels ~vtracks ~col ~vtrack))
  in
  let avg_hseg = Segmentation.average_segment_length hscheme ~cols ~tracks in
  { rows; cols; tracks; vtracks; n_channels; hscheme; hsegs; vsegs; avg_hseg }

let n_slots t = t.rows * t.cols

let is_perimeter t ~row ~col = row = 0 || row = t.rows - 1 || col = 0 || col = t.cols - 1

let n_perimeter_slots t =
  if t.rows = 1 then t.cols
  else if t.rows = 2 then 2 * t.cols
  else (2 * t.cols) + (2 * (t.rows - 2))

let check_fits t nl =
  let counts = Spr_netlist.Netlist.counts nl in
  let n_cells = Spr_netlist.Netlist.n_cells nl in
  let n_io = counts.Spr_netlist.Netlist.n_input + counts.Spr_netlist.Netlist.n_output in
  if n_cells > n_slots t then
    Error
      (Printf.sprintf "netlist has %d cells but the fabric only %d slots" n_cells (n_slots t))
  else if n_io > n_perimeter_slots t then
    Error
      (Printf.sprintf "netlist has %d I/O pads but the fabric only %d perimeter slots" n_io
         (n_perimeter_slots t))
  else Ok ()

let hsegments t ~channel ~track = t.hsegs.(channel).(track)

let vsegments t ~col ~vtrack = t.vsegs.(col).(vtrack)

(* Segments partition their extent, so covering [span] means locating the
   segment containing [span.lo] and walking right to the one containing
   [span.hi]. *)
let find_cover segs (span : Spr_util.Interval.t) =
  let n = Array.length segs in
  if n = 0 then None
  else if span.Spr_util.Interval.lo < segs.(0).Spr_util.Interval.lo
          || span.Spr_util.Interval.hi > segs.(n - 1).Spr_util.Interval.hi
  then None
  else begin
    (* Binary search for the segment containing span.lo. *)
    let rec search lo hi =
      let mid = (lo + hi) / 2 in
      let s = segs.(mid) in
      if Spr_util.Interval.contains s span.Spr_util.Interval.lo then mid
      else if span.Spr_util.Interval.lo < s.Spr_util.Interval.lo then search lo (mid - 1)
      else search (mid + 1) hi
    in
    let first = search 0 (n - 1) in
    let rec extend i =
      if segs.(i).Spr_util.Interval.hi >= span.Spr_util.Interval.hi then i else extend (i + 1)
    in
    Some (first, extend first)
  end

let avg_hseg_length t = t.avg_hseg

(* Taller fabrics have more channels to cross, so feedthrough demand per
   column grows with the row count; real antifuse families scale their
   vertical track budget accordingly. *)
let default_vtracks_for ~rows = max 5 ((rows + 1) / 2)

(* Slots per cell are [1 / utilization]. *)
let utilization = 0.85

let size_for ?(aspect = 3.0) ?(tracks = 24) ?hscheme ?vtracks nl =
  let n_cells = Spr_netlist.Netlist.n_cells nl in
  let counts = Spr_netlist.Netlist.counts nl in
  let n_io = counts.Spr_netlist.Netlist.n_input + counts.Spr_netlist.Netlist.n_output in
  let slots = int_of_float (ceil (float_of_int n_cells /. utilization)) in
  let rows = max 2 (int_of_float (Float.round (sqrt (float_of_int slots /. aspect)))) in
  let cols = max 2 (int_of_float (ceil (float_of_int slots /. float_of_int rows))) in
  (* Widen until the perimeter holds the pads. *)
  let rec widen cols =
    let perimeter = if rows = 2 then 2 * cols else (2 * cols) + (2 * (rows - 2)) in
    if perimeter >= n_io then cols else widen (cols + 1)
  in
  let cols = widen cols in
  let vtracks = match vtracks with Some v -> v | None -> default_vtracks_for ~rows in
  create ~rows ~cols ~tracks ?hscheme ~vtracks ()

let pp ppf t =
  Format.fprintf ppf "%dx%d fabric, %d channels x %d tracks (%s), %d vtracks/col" t.rows
    t.cols t.n_channels t.tracks
    (Segmentation.scheme_to_string t.hscheme)
    t.vtracks
