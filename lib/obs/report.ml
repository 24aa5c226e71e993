let schema_version = "spr-report-1"

type dyn_row = {
  dr_temp_index : int;
  dr_temperature : float;
  dr_pct_cells : float;
  dr_pct_g_unrouted : float;
  dr_pct_unrouted : float;
  dr_acceptance : float;
  dr_cost : float;
  dr_delay_ns : float;
  dr_phase_seconds : (string * float) list;
}

type phase_row = { ph_name : string; ph_seconds : float; ph_calls : int }

type pipeline = {
  pl_moves : int;
  pl_null_moves : int;
  pl_accepts : int;
  pl_rejects : int;
  pl_ripped_nets : int;
  pl_retimed_nets : int;
  pl_total_seconds : float;
  pl_phases : phase_row list;
  pl_global_attempts : int;
  pl_global_routed : int;
  pl_detail_attempts : int;
  pl_detail_routed : int;
}

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

let total_antifuses rt = rt.rt_h_antifuses + rt.rt_v_antifuses + rt.rt_x_antifuses

type t = {
  r_label : string;
  r_seed : int;
  r_replicas : int;
  r_status : string;
  r_fully_routed : bool;
  r_g_unrouted : int;
  r_d_unrouted : int;
  r_critical_delay_ns : float;
  r_best_cost : float;
  r_initial_cost : float;
  r_final_cost : float;
  r_moves : int;
  r_temperatures : int;
  r_exchange_rounds : int;
  r_cpu_seconds : float;
  r_wall_seconds : float;
  r_pipeline : pipeline option;
  r_route : route_summary option;
  r_dynamics : dyn_row list;
  r_metrics : (string * Metrics.value) list;
}

(* ------------------------------------------------------------------ *)
(* JSON encoding                                                       *)

open Json

let dyn_row_to_json r =
  Obj
    [
      ("temp_index", Int r.dr_temp_index);
      ("temperature", Float r.dr_temperature);
      ("pct_cells_perturbed", Float r.dr_pct_cells);
      ("pct_g_unrouted", Float r.dr_pct_g_unrouted);
      ("pct_unrouted", Float r.dr_pct_unrouted);
      ("acceptance", Float r.dr_acceptance);
      ("cost", Float r.dr_cost);
      ("critical_delay_ns", Float r.dr_delay_ns);
      ("phase_seconds", Obj (List.map (fun (k, v) -> (k, Float v)) r.dr_phase_seconds));
    ]

let metrics_to_json ms =
  Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Metrics.Count n -> Obj [ ("kind", String "counter"); ("value", Int n) ]
           | Metrics.Value x -> Obj [ ("kind", String "gauge"); ("value", Float x) ]
           | Metrics.Buckets { bounds; counts } ->
             Obj
               [
                 ("kind", String "histogram");
                 ("bounds", List (Array.to_list (Array.map (fun b -> Float b) bounds)));
                 ("counts", List (Array.to_list (Array.map (fun c -> Int c) counts)));
               ] ))
       ms)

let phase_row_to_json p =
  Obj [ ("name", String p.ph_name); ("seconds", Float p.ph_seconds); ("calls", Int p.ph_calls) ]

let pipeline_to_json p =
  Obj
    [
      ("moves", Int p.pl_moves);
      ("null_moves", Int p.pl_null_moves);
      ("accepts", Int p.pl_accepts);
      ("rejects", Int p.pl_rejects);
      ("ripped_nets", Int p.pl_ripped_nets);
      ("retimed_nets", Int p.pl_retimed_nets);
      ("total_seconds", Float p.pl_total_seconds);
      ("phases", List (List.map phase_row_to_json p.pl_phases));
      ("global_attempts", Int p.pl_global_attempts);
      ("global_routed", Int p.pl_global_routed);
      ("detail_attempts", Int p.pl_detail_attempts);
      ("detail_routed", Int p.pl_detail_routed);
    ]

let channel_to_json c =
  Obj
    [
      ("channel", Int c.ch_index);
      ("used_len", Int c.ch_used_len);
      ("total_len", Int c.ch_total_len);
      ("used_segments", Int c.ch_used_segments);
      ("total_segments", Int c.ch_total_segments);
    ]

let route_to_json r =
  Obj
    [
      ("routed_nets", Int r.rt_routed_nets);
      ("unrouted_nets", Int r.rt_unrouted_nets);
      ("h_wirelength", Int r.rt_h_wirelength);
      ("v_wirelength", Int r.rt_v_wirelength);
      ("h_antifuses", Int r.rt_h_antifuses);
      ("v_antifuses", Int r.rt_v_antifuses);
      ("x_antifuses", Int r.rt_x_antifuses);
      ("vertical_used", Int r.rt_vertical_used);
      ("vertical_total", Int r.rt_vertical_total);
      ("channels", List (List.map channel_to_json r.rt_channels));
    ]

let to_json t =
  Obj
    [
      ("schema", String schema_version);
      ("label", String t.r_label);
      ("seed", Int t.r_seed);
      ("replicas", Int t.r_replicas);
      ("status", String t.r_status);
      ("fully_routed", Bool t.r_fully_routed);
      ("g_unrouted", Int t.r_g_unrouted);
      ("d_unrouted", Int t.r_d_unrouted);
      ("critical_delay_ns", Float t.r_critical_delay_ns);
      ("best_cost", Float t.r_best_cost);
      ("initial_cost", Float t.r_initial_cost);
      ("final_cost", Float t.r_final_cost);
      ("moves", Int t.r_moves);
      ("temperatures", Int t.r_temperatures);
      ("exchange_rounds", Int t.r_exchange_rounds);
      ("cpu_seconds", Float t.r_cpu_seconds);
      ("wall_seconds", Float t.r_wall_seconds);
      ("pipeline", (match t.r_pipeline with None -> Null | Some p -> pipeline_to_json p));
      ("route", (match t.r_route with None -> Null | Some r -> route_to_json r));
      ("dynamics", List (List.map dyn_row_to_json t.r_dynamics));
      ("metrics", metrics_to_json t.r_metrics);
    ]

(* ------------------------------------------------------------------ *)
(* JSON decoding                                                       *)

let dyn_row_decode j =
  {
    dr_temp_index = dint j "temp_index";
    dr_temperature = dfloat j "temperature";
    dr_pct_cells = dfloat j "pct_cells_perturbed";
    dr_pct_g_unrouted = dfloat j "pct_g_unrouted";
    dr_pct_unrouted = dfloat j "pct_unrouted";
    dr_acceptance = dfloat j "acceptance";
    dr_cost = dfloat j "cost";
    dr_delay_ns = dfloat j "critical_delay_ns";
    dr_phase_seconds =
      List.map
        (fun (k, v) -> (k, expect "number" to_float ("phase_seconds." ^ k) v))
        (dfields j "phase_seconds");
  }

let dyn_row_of_json = decode ~what:"dynamics row" dyn_row_decode

let metrics_decode j =
  match j with
  | Obj fields ->
    List.map
      (fun (name, v) ->
        let value =
          match to_str (get v "kind") with
          | Some "counter" -> Metrics.Count (dint v "value")
          | Some "gauge" -> Metrics.Value (dfloat v "value")
          | Some "histogram" ->
            let arr conv field =
              Array.of_list
                (List.map
                   (fun x ->
                     match conv x with Some y -> y | None -> fail "metric %s: bad %s" name field)
                   (dlist v field))
            in
            Metrics.Buckets { bounds = arr to_float "bounds"; counts = arr to_int "counts" }
          | _ -> fail "metric %s: unknown kind" name
        in
        (match Metrics.check_value value with
        | Ok () -> ()
        | Error e -> fail "metric %s: %s" name e);
        (name, value))
      fields
  | _ -> fail "metrics: expected object"

let metrics_of_json = decode ~what:"metrics" metrics_decode

let phase_row_decode j =
  { ph_name = dstr j "name"; ph_seconds = dfloat j "seconds"; ph_calls = dint j "calls" }

let pipeline_decode j =
  {
    pl_moves = dint j "moves";
    pl_null_moves = dint j "null_moves";
    pl_accepts = dint j "accepts";
    pl_rejects = dint j "rejects";
    pl_ripped_nets = dint j "ripped_nets";
    pl_retimed_nets = dint j "retimed_nets";
    pl_total_seconds = dfloat j "total_seconds";
    pl_phases = List.map phase_row_decode (dlist j "phases");
    pl_global_attempts = dint j "global_attempts";
    pl_global_routed = dint j "global_routed";
    pl_detail_attempts = dint j "detail_attempts";
    pl_detail_routed = dint j "detail_routed";
  }

let channel_decode j =
  {
    ch_index = dint j "channel";
    ch_used_len = dint j "used_len";
    ch_total_len = dint j "total_len";
    ch_used_segments = dint j "used_segments";
    ch_total_segments = dint j "total_segments";
  }

let route_decode j =
  {
    rt_routed_nets = dint j "routed_nets";
    rt_unrouted_nets = dint j "unrouted_nets";
    rt_h_wirelength = dint j "h_wirelength";
    rt_v_wirelength = dint j "v_wirelength";
    rt_h_antifuses = dint j "h_antifuses";
    rt_v_antifuses = dint j "v_antifuses";
    rt_x_antifuses = dint j "x_antifuses";
    rt_vertical_used = dint j "vertical_used";
    rt_vertical_total = dint j "vertical_total";
    rt_channels = List.map channel_decode (dlist j "channels");
  }

let of_json =
  decode ~what:"report" (fun j ->
      let schema = dstr j "schema" in
      if schema <> schema_version then fail "unknown report schema %s" schema;
      {
        r_label = dstr j "label";
        r_seed = dint j "seed";
        r_replicas = dint j "replicas";
        r_status = dstr j "status";
        r_fully_routed = dbool j "fully_routed";
        r_g_unrouted = dint j "g_unrouted";
        r_d_unrouted = dint j "d_unrouted";
        r_critical_delay_ns = dfloat j "critical_delay_ns";
        r_best_cost = dfloat j "best_cost";
        r_initial_cost = dfloat j "initial_cost";
        r_final_cost = dfloat j "final_cost";
        r_moves = dint j "moves";
        r_temperatures = dint j "temperatures";
        r_exchange_rounds = dint j "exchange_rounds";
        r_cpu_seconds = dfloat j "cpu_seconds";
        r_wall_seconds = dfloat j "wall_seconds";
        r_pipeline = (match get j "pipeline" with Null -> None | p -> Some (pipeline_decode p));
        r_route = (match get j "route" with Null -> None | r -> Some (route_decode r));
        r_dynamics = List.map dyn_row_decode (dlist j "dynamics");
        r_metrics = metrics_decode (get j "metrics");
      })

(* ------------------------------------------------------------------ *)
(* Rendering — the one copy of the dynamics-table columns.             *)

let render_dynamics ppf rows =
  Format.fprintf ppf "%4s  %12s  %8s  %8s  %8s  %6s  %10s@."
    "temp" "T" "%cells" "%G-unrt" "%unrt" "acc" "delay(ns)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%4d  %12.5g  %8.1f  %8.1f  %8.1f  %6.2f  %10.2f@."
        r.dr_temp_index r.dr_temperature r.dr_pct_cells r.dr_pct_g_unrouted r.dr_pct_unrouted
        r.dr_acceptance r.dr_delay_ns)
    rows

let render_phase_series ppf ~phase_names rows =
  Format.fprintf ppf "%4s" "temp";
  List.iter (fun name -> Format.fprintf ppf "  %14s" (name ^ "(ms)")) phase_names;
  Format.fprintf ppf "@.";
  let n = List.length phase_names in
  List.iter
    (fun r ->
      if List.length r.dr_phase_seconds = n then begin
        Format.fprintf ppf "%4d" r.dr_temp_index;
        List.iter (fun (_, sec) -> Format.fprintf ppf "  %14.3f" (sec *. 1e3)) r.dr_phase_seconds;
        Format.fprintf ppf "@."
      end)
    rows

let pp_summary ppf t =
  Format.fprintf ppf "run %s: seed %d, %d replica%s, %s@." t.r_label t.r_seed t.r_replicas
    (if t.r_replicas = 1 then "" else "s")
    t.r_status;
  Format.fprintf ppf "routing: %s (%d globally unrouted, %d unrouted)@."
    (if t.r_fully_routed then "complete" else "incomplete")
    t.r_g_unrouted t.r_d_unrouted;
  Format.fprintf ppf "critical delay %.2f ns, best cost %.4g (initial %.4g, final %.4g)@."
    t.r_critical_delay_ns t.r_best_cost t.r_initial_cost t.r_final_cost;
  Format.fprintf ppf "%d moves over %d temperatures" t.r_moves t.r_temperatures;
  if t.r_exchange_rounds > 0 then
    Format.fprintf ppf ", %d exchange rounds" t.r_exchange_rounds;
  Format.fprintf ppf "; %.2f s cpu, %.2f s wall@." t.r_cpu_seconds t.r_wall_seconds
