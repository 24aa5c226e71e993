(** Row-based FPGA fabric model.

    [rows] rows of [cols] unit-width logic-module slots. Channel [k] runs
    {e below} row [k]; channel [rows] runs above the top row, so there are
    [rows + 1] channels. Each channel has [tracks] horizontal tracks with
    a {!Segmentation.scheme}. Each column carries [vtracks] vertical
    tracks, segmented over channel spans, used as feedthrough spines by
    the global router. *)

type t = private {
  rows : int;
  cols : int;
  tracks : int;
  vtracks : int;
  n_channels : int;  (** [rows + 1]. *)
  hscheme : Segmentation.scheme;
  hsegs : Spr_util.Interval.t array array array;
      (** [hsegs.(channel).(track)] partitions columns [\[0, cols-1\]]. *)
  vsegs : Spr_util.Interval.t array array array;
      (** [vsegs.(col).(vtrack)] partitions channels [\[0, rows\]]. *)
  avg_hseg : float;  (** See {!avg_hseg_length}. *)
}

val create :
  rows:int ->
  cols:int ->
  tracks:int ->
  ?hscheme:Segmentation.scheme ->
  ?vtracks:int ->
  unit ->
  t
(** Defaults: [hscheme = Actel_like] and [vtracks = 5]. The vertical
    tracks mix full-span tracks (the first half, rounded up) with
    tracks cut into segments of half the channels. Raises
    [Invalid_argument] on non-positive dimensions. *)

(** {1 Capacity} *)

val n_slots : t -> int

val is_perimeter : t -> row:int -> col:int -> bool

val n_perimeter_slots : t -> int

val check_fits : t -> Spr_netlist.Netlist.t -> (unit, string) result
(** Capacity check: enough slots for all cells and enough perimeter slots
    for the I/O pads. *)

(** {1 Segment lookup} *)

val hsegments : t -> channel:int -> track:int -> Spr_util.Interval.t array

val vsegments : t -> col:int -> vtrack:int -> Spr_util.Interval.t array

val find_cover : Spr_util.Interval.t array -> Spr_util.Interval.t -> (int * int) option
(** [find_cover segs span] returns the index range [(lo, hi)] of the
    consecutive segments of a partition that together cover [span], or
    [None] when [span] exceeds the partition's extent. *)

val avg_hseg_length : t -> float
(** Mean horizontal segment length,
    {!Segmentation.average_segment_length} of the fabric's scheme,
    columns and tracks. Computed once by {!create} and stored, because
    the pre-route delay estimate reads it for every unrouted net. *)

(** {1 Sizing} *)

val size_for :
  ?aspect:float ->
  ?tracks:int ->
  ?hscheme:Segmentation.scheme ->
  ?vtracks:int ->
  Spr_netlist.Netlist.t ->
  t
(** Pick fabric dimensions for a netlist: total slots = [cells / 0.85],
    [cols / rows ~ aspect] (default 3.0, row-based die are wide),
    widened if needed until the perimeter holds all I/O pads. Default
    [tracks = 24]; when [vtracks] is omitted it scales with the row
    count ([max 5 ((rows+1)/2)]) since taller fabrics see more
    feedthrough demand per column. *)

val pp : Format.formatter -> t -> unit
