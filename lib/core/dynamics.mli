(** The per-temperature recorder behind the paper's Figure 6.

    At each temperature it records the fraction of cells perturbed
    (moved by an accepted move), the fraction of nets globally unrouted,
    and the fraction of nets unrouted altogether; the difference of the
    last two is the fraction globally routed but not detail routed. Each
    temperature closes into one {!Spr_obs.Report.dyn_row} — the report's
    row is the only record of these numbers, and
    {!Spr_obs.Report.render_dynamics} the only table of them. *)

type t

val create : n_cells:int -> t

val note_accepted_cells : t -> int list -> unit
(** Mark cells perturbed by an accepted move. *)

val flush :
  ?phase_seconds:float array ->
  t ->
  temp_index:int ->
  temperature:float ->
  g_frac:float ->
  d_frac:float ->
  acceptance:float ->
  cost:float ->
  critical_delay:float ->
  unit
(** Close the current temperature: append a row and reset the
    perturbation marks. [phase_seconds] is the per-phase time spent
    inside move transactions at this temperature, indexed by
    {!Profile.phase_index} (from {!Profile.since}); the row names its
    columns with {!Profile.phase_name}. Without a full set (the default
    [[||]]) the row carries no phase columns. *)

val samples : t -> Spr_obs.Report.dyn_row list
(** In temperature order. *)

val last_sample : t -> Spr_obs.Report.dyn_row option
(** The most recently flushed row, without walking the series. *)

val perturbed_flags : t -> bool array
(** Copy of the per-cell perturbation marks accumulated since the last
    {!flush} — the mid-temperature state a resumable checkpoint must
    carry. *)

val restore :
  n_cells:int -> flags:bool array -> samples:Spr_obs.Report.dyn_row list -> t
(** Recorder continuing exactly from a {!perturbed_flags} /
    {!samples} capture. Raises [Invalid_argument] if [flags] is not
    [n_cells] long. *)
