(** The unified, versioned run report: one record holding what
    [Route_stats], [Profile], and [Dynamics] used to expose through
    three ad-hoc channels. Every [Tool.run] replica and the fleet
    return one of these; the CLI writes it as [report.json] (the machine twin
    of the ASCII tables) and every ASCII table is re-rendered from it
    with the shared renderers below. *)

val schema_version : string
(** ["spr-report-1"]. *)

(** {1 Dynamics rows} *)

type dyn_row = {
  dr_temp_index : int;
  dr_temperature : float;
  dr_pct_cells : float;  (** % of cells perturbed at this temperature *)
  dr_pct_g_unrouted : float;  (** % of nets globally unrouted *)
  dr_pct_unrouted : float;  (** % of nets unrouted altogether *)
  dr_acceptance : float;
  dr_cost : float;
  dr_delay_ns : float;
  dr_phase_seconds : (string * float) list;
      (** Move-pipeline seconds per phase (pipeline order); [[]] for
          rows recorded without profiling. *)
}

(** {1 Move-pipeline summary} *)

type phase_row = { ph_name : string; ph_seconds : float; ph_calls : int }

type pipeline = {
  pl_moves : int;
  pl_null_moves : int;
  pl_accepts : int;
  pl_rejects : int;
  pl_ripped_nets : int;
  pl_retimed_nets : int;
  pl_total_seconds : float;
  pl_phases : phase_row list;  (** pipeline order *)
  pl_global_attempts : int;
  pl_global_routed : int;
  pl_detail_attempts : int;
  pl_detail_routed : int;
}

(** {1 Routing summary} *)

type channel_row = {
  ch_index : int;
  ch_used_len : int;
  ch_total_len : int;
  ch_used_segments : int;
  ch_total_segments : int;
}

type route_summary = {
  rt_routed_nets : int;
  rt_unrouted_nets : int;
  rt_h_wirelength : int;
  rt_v_wirelength : int;
  rt_h_antifuses : int;
  rt_v_antifuses : int;
  rt_x_antifuses : int;
  rt_vertical_used : int;
  rt_vertical_total : int;
  rt_channels : channel_row list;
}

val total_antifuses : route_summary -> int

(** {1 The report} *)

type t = {
  r_label : string;  (** circuit / run label *)
  r_seed : int;
  r_replicas : int;  (** 1 for a serial run *)
  r_status : string;  (** [Outcome.status_to_string] *)
  r_fully_routed : bool;
  r_g_unrouted : int;  (** nets without a global route *)
  r_d_unrouted : int;  (** nets without a detail route *)
  r_critical_delay_ns : float;
  r_best_cost : float;
  r_initial_cost : float;
  r_final_cost : float;
  r_moves : int;
  r_temperatures : int;
  r_exchange_rounds : int;  (** 0 for a serial run *)
  r_cpu_seconds : float;  (** process CPU of the whole run, all replicas *)
  r_wall_seconds : float;  (** elapsed; equals cpu for a serial run *)
  r_pipeline : pipeline option;  (** [None] when profiling was off *)
  r_route : route_summary option;
  r_dynamics : dyn_row list;
  r_metrics : (string * Metrics.value) list;
      (** Registry snapshot (merged across replicas). *)
}

(** {1 JSON} *)

val to_json : t -> Json.t
(** Carries [schema_version] in a ["schema"] field. *)

val of_json : Json.t -> (t, string) Stdlib.result
(** Rejects unknown schema versions. *)

val dyn_row_to_json : dyn_row -> Json.t

val dyn_row_of_json : Json.t -> (dyn_row, string) Stdlib.result

val metrics_to_json : (string * Metrics.value) list -> Json.t

val metrics_of_json : Json.t -> ((string * Metrics.value) list, string) Stdlib.result

(** {1 Rendering}

    The single source of truth for the dynamics-table columns; the
    legacy [Dynamics.pp_series]/[pp_phase_series] and the bench /
    experiment tables all delegate here. *)

val render_dynamics : Format.formatter -> dyn_row list -> unit
(** The Figure-6 series as an aligned text table. *)

val render_phase_series :
  Format.formatter -> phase_names:string list -> dyn_row list -> unit
(** Per-temperature per-phase move-pipeline milliseconds, one column
    per name in [phase_names]; rows without a full set of phase times
    are skipped. *)

val pp_summary : Format.formatter -> t -> unit
(** Compact human-readable run summary (used by [spr report]). *)
