module Router = Spr_route.Router
module Portfolio = Spr_anneal.Portfolio

type moves = {
  pinmap_move_prob : float;
  enable_pinmap_moves : bool;
  max_swap_tries : int;
}

type weights = {
  g_per_net : float;
  d_per_net : float;
  t_emphasis : float;
}

type budget = {
  time_budget : float option;
  max_moves : int option;
  stop_after_accepted : int option;
  poll : (unit -> bool) option;
}

type persistence = {
  run_dir : string option;
  snapshot_every : int;
  snapshot_keep : int;
  final_checkpoint : bool;
}

type validation = {
  validate : bool;
  validate_every : int;
}

type scheduler = {
  kind : [ `Barrier | `Racing ];
  race_margin : float;
  race_warmup : int;
  race_every : int;
}

type parallel = {
  replicas : int;
  exchange : Portfolio.exchange;
  scheduler : scheduler;
  stream : int;
  route_grain : int;
      (* Inert stub: bench/ledger/traced.ml still reads it; nothing
         else does. *)
}

type obs = {
  record : bool;
  trace_path : string option;
  report_path : string option;
  label : string option;
  on_event : (Spr_obs.Trace.event -> unit) option;
}

type flow = {
  preset : string;
  stage_budgets : (string * float) list;
}

type t = {
  seed : int;
  router : Router.config;
  timing_driven_routing : bool;
  delay_model : Spr_timing.Delay_model.t;
  anneal : Spr_anneal.Engine.config option;
  moves : moves;
  weights : weights;
  budget : budget;
  persistence : persistence;
  validation : validation;
  parallel : parallel;
  obs : obs;
  flow : flow;
}

let default =
  {
    seed = 1;
    router = Router.default_config;
    timing_driven_routing = false;
    delay_model = Spr_timing.Delay_model.default;
    anneal = None;
    moves = { pinmap_move_prob = 0.15; enable_pinmap_moves = true; max_swap_tries = 8 };
    weights = { g_per_net = 0.04; d_per_net = 0.02; t_emphasis = 1.0 };
    budget = { time_budget = None; max_moves = None; stop_after_accepted = None; poll = None };
    persistence =
      { run_dir = None; snapshot_every = 1; snapshot_keep = 3; final_checkpoint = true };
    validation = { validate = false; validate_every = 50 };
    parallel =
      {
        replicas = 1;
        exchange = Portfolio.Independent;
        scheduler =
          {
            kind = `Barrier;
            race_margin = 1.0;
            race_warmup = 10;
            race_every = 5;
          };
        stream = 0;
        route_grain = 8;
      };
    obs =
      { record = false; trace_path = None; report_path = None; label = None; on_event = None };
    flow = { preset = "sa"; stage_budgets = [] };
  }

(* --- flow vocabulary ---
   The stage names and named presets live here (not in [Spr_flow])
   so [validated] can reject bad flows without a dependency on the
   flow engine, which sits above this library. *)

let flow_stage_names = [ "ap"; "sa"; "greedy"; "route"; "sta" ]

let flow_presets =
  [
    ("sa", [ "sa" ]);
    ("ap+sa", [ "ap"; "sa" ]);
    ("ap+greedy+route", [ "ap"; "greedy"; "route" ]);
    ("seq", [ "greedy"; "route"; "sta" ]);
  ]

let flow_preset_names = List.map fst flow_presets

(* Stage-order sanity shared by named presets and ad-hoc '+' chains:
   [ap] places from scratch so it can only open a flow; [route] needs
   a placement to route; [sta] needs routing to time. *)
let check_stage_order stages =
  let rec walk ~placed ~routed ~pos = function
    | [] -> Ok ()
    | "ap" :: rest ->
      if pos > 0 then Error "stage ap must come first (it places from scratch)"
      else walk ~placed:true ~routed ~pos:(pos + 1) rest
    | "sa" :: rest -> walk ~placed:true ~routed:true ~pos:(pos + 1) rest
    | "greedy" :: rest -> walk ~placed:true ~routed ~pos:(pos + 1) rest
    | "route" :: rest ->
      if not placed then Error "stage route needs a preceding placement stage (ap|sa|greedy)"
      else walk ~placed ~routed:true ~pos:(pos + 1) rest
    | "sta" :: rest ->
      if not routed then Error "stage sta needs a preceding routing stage (sa|route)"
      else walk ~placed ~routed ~pos:(pos + 1) rest
    | s :: _ -> Error (Printf.sprintf "unknown stage %s" s)
  in
  walk ~placed:false ~routed:false ~pos:0 stages

let flow_stages_of_preset name =
  let valid () =
    Printf.sprintf "valid presets: %s; or any '+'-joined chain of stages %s"
      (String.concat ", " flow_preset_names)
      (String.concat "|" flow_stage_names)
  in
  match List.assoc_opt name flow_presets with
  | Some stages -> Ok stages
  | None ->
    let stages = String.split_on_char '+' name in
    if name = "" || List.exists (fun s -> s = "") stages then
      Error (Printf.sprintf "empty flow preset %S; %s" name (valid ()))
    else begin
      let unknown = List.filter (fun s -> not (List.mem s flow_stage_names)) stages in
      match unknown with
      | _ :: _ ->
        Error
          (Printf.sprintf "unknown flow stage%s %s in preset %s; %s"
             (if List.length unknown > 1 then "s" else "")
             (String.concat ", " unknown) name (valid ()))
      | [] -> (
        let dup =
          List.filter (fun s -> List.length (List.filter (( = ) s) stages) > 1) stages
        in
        match dup with
        | d :: _ -> Error (Printf.sprintf "stage %s repeats in preset %s" d name)
        | [] -> (
          match check_stage_order stages with
          | Error e -> Error (Printf.sprintf "%s (preset %s)" e name)
          | Ok () -> Ok stages))
    end

(* --- scheduler vocabulary ---
   "barrier" meets only at exchange rounds; "racing" is the
   predictive early-kill scheduler. *)

let scheduler_to_string = function `Barrier -> "barrier" | `Racing -> "racing"

let scheduler_of_string = function
  | "barrier" -> Ok `Barrier
  | "racing" -> Ok `Racing
  | name -> Error (Printf.sprintf "unknown scheduler %S (want barrier or racing)" name)

(* The one place configuration sanity lives. Nonsense is rejected
   with a message naming every offending field; the historical
   "clamp to >= 1" fields are normalized here instead of at their
   points of use. *)
let validated t =
  let errors = ref [] in
  let reject fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let p = t.moves.pinmap_move_prob in
  if not (p >= 0.0 && p <= 1.0) then
    reject "pinmap_move_prob must be within [0, 1] (got %g)" p;
  if t.moves.max_swap_tries < 1 then
    reject "max_swap_tries must be >= 1 (got %d)" t.moves.max_swap_tries;
  let weight name v =
    if not (Float.is_finite v && v >= 0.0) then
      reject "%s must be finite and >= 0 (got %g)" name v
  in
  weight "g_per_net" t.weights.g_per_net;
  weight "d_per_net" t.weights.d_per_net;
  weight "t_emphasis" t.weights.t_emphasis;
  (match t.budget.time_budget with
  | Some b when not (Float.is_finite b && b > 0.0) ->
    reject "time_budget must be a positive number of seconds (got %g)" b
  | _ -> ());
  (match t.budget.max_moves with
  | Some m when m < 0 -> reject "max_moves must be >= 0 (got %d)" m
  | _ -> ());
  (match t.budget.stop_after_accepted with
  | Some k when k < 1 -> reject "stop_after_accepted must be >= 1 (got %d)" k
  | _ -> ());
  if t.parallel.replicas < 1 then
    reject "parallel replicas must be >= 1 (got %d)" t.parallel.replicas;
  if t.parallel.stream < 0 then
    reject "parallel stream must be >= 0 (got %d)" t.parallel.stream;
  (match t.parallel.exchange with
  | Portfolio.Independent -> ()
  | Portfolio.Best_exchange n when n >= 1 -> ()
  | Portfolio.Best_exchange n -> reject "exchange period must be >= 1 (got %d)" n);
  (let s = t.parallel.scheduler in
   if not (Float.is_finite s.race_margin && s.race_margin >= 0.0) then
     reject "race_margin must be finite and >= 0 (got %g)" s.race_margin;
   if s.race_warmup < 0 then reject "race_warmup must be >= 0 (got %d)" s.race_warmup;
   if s.race_every < 1 then reject "race_every must be >= 1 (got %d)" s.race_every;
   match (s.kind, t.parallel.exchange) with
   | `Racing, Portfolio.Best_exchange _ ->
     reject "the racing scheduler replaces the exchange barrier; use exchange independent"
   | (`Racing | `Barrier), _ -> ());
  (match flow_stages_of_preset t.flow.preset with
  | Error e -> reject "%s" e
  | Ok stages ->
    List.iter
      (fun (stage, seconds) ->
        if not (List.mem stage flow_stage_names) then
          reject "stage_budget for unknown stage %s (valid stages: %s)" stage
            (String.concat "|" flow_stage_names)
        else if not (List.mem stage stages) then
          reject "stage_budget for stage %s absent from flow %s" stage t.flow.preset;
        if not (Float.is_finite seconds && seconds > 0.0) then
          reject "stage_budget for %s must be positive seconds (got %g)" stage seconds)
      t.flow.stage_budgets;
    let keys = List.map fst t.flow.stage_budgets in
    List.iter
      (fun k ->
        if List.length (List.filter (( = ) k) keys) > 1 then
          reject "duplicate stage_budget for stage %s" k)
      (List.sort_uniq compare keys));
  match !errors with
  | _ :: _ -> Error (String.concat "; " (List.rev !errors))
  | [] ->
    Ok
      {
        t with
        persistence =
          {
            t.persistence with
            snapshot_every = max 1 t.persistence.snapshot_every;
            snapshot_keep = max 1 t.persistence.snapshot_keep;
          };
        validation = { t.validation with validate_every = max 1 t.validation.validate_every };
      }

let with_seed seed t = { t with seed }

let with_timing_driven_routing timing_driven_routing t = { t with timing_driven_routing }

let with_anneal cfg t = { t with anneal = Some cfg }

let with_pinmap_moves ?prob enable t =
  {
    t with
    moves =
      {
        t.moves with
        enable_pinmap_moves = enable;
        pinmap_move_prob =
          (match prob with Some p -> p | None -> t.moves.pinmap_move_prob);
      };
  }

let with_max_swap_tries max_swap_tries t = { t with moves = { t.moves with max_swap_tries } }

let with_weights weights t = { t with weights }

let with_time_budget b t = { t with budget = { t.budget with time_budget = Some b } }

let with_max_moves m t = { t with budget = { t.budget with max_moves = Some m } }

let with_stop_after_accepted k t =
  { t with budget = { t.budget with stop_after_accepted = Some k } }

let with_cancel_poll f t = { t with budget = { t.budget with poll = Some f } }

let with_run_dir ?snapshot_every ?snapshot_keep dir t =
  {
    t with
    persistence =
      {
        t.persistence with
        run_dir = Some dir;
        snapshot_every =
          (match snapshot_every with Some e -> e | None -> t.persistence.snapshot_every);
        snapshot_keep =
          (match snapshot_keep with Some k -> k | None -> t.persistence.snapshot_keep);
      };
  }

let with_final_checkpoint final_checkpoint t =
  { t with persistence = { t.persistence with final_checkpoint } }

let with_validate ?every validate t =
  {
    t with
    validation =
      {
        validate;
        validate_every = (match every with Some e -> e | None -> t.validation.validate_every);
      };
  }

let with_replicas ?exchange replicas t =
  {
    t with
    parallel =
      {
        t.parallel with
        replicas;
        exchange = (match exchange with Some x -> x | None -> t.parallel.exchange);
      };
  }

let with_stream stream t = { t with parallel = { t.parallel with stream } }

let update_scheduler f t =
  { t with parallel = { t.parallel with scheduler = f t.parallel.scheduler } }

let with_scheduler_kind kind = update_scheduler (fun s -> { s with kind })

let with_race_margin race_margin = update_scheduler (fun s -> { s with race_margin })

let with_race_warmup race_warmup = update_scheduler (fun s -> { s with race_warmup })

let with_race_every race_every = update_scheduler (fun s -> { s with race_every })

let with_trace_recording record t = { t with obs = { t.obs with record } }

let with_trace_file path t = { t with obs = { t.obs with trace_path = Some path } }

let with_report_file path t = { t with obs = { t.obs with report_path = Some path } }

let with_on_event f t = { t with obs = { t.obs with on_event = Some f } }

let with_flow_preset preset t = { t with flow = { t.flow with preset } }

let with_stage_budget stage seconds t =
  let rest = List.filter (fun (s, _) -> s <> stage) t.flow.stage_budgets in
  { t with flow = { t.flow with stage_budgets = rest @ [ (stage, seconds) ] } }
