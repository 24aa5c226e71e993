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

type parallel = {
  replicas : int;
  exchange : Portfolio.exchange;
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
  flow : string;
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
    budget = { time_budget = None; max_moves = None; stop_after_accepted = None };
    persistence =
      { run_dir = None; snapshot_every = 1; snapshot_keep = 3; final_checkpoint = true };
    validation = { validate = false; validate_every = 50 };
    parallel =
      {
        replicas = 1;
        exchange = Portfolio.Independent;
        stream = 0;
        route_grain = 8;
      };
    obs =
      { record = false; trace_path = None; report_path = None; label = None; on_event = None };
    flow = "sa";
  }

(* --- flow vocabulary ---
   The named presets live here (not in [Spr_flow]) so [validated] can
   reject bad flows without a dependency on the flow engine, which sits
   above this library. *)

let flow_presets =
  [
    ("sa", [ "sa" ]);
    ("ap+sa", [ "ap"; "sa" ]);
    ("ap+greedy+route", [ "ap"; "greedy"; "route" ]);
    ("seq", [ "greedy"; "route"; "sta" ]);
  ]

let flow_preset_names = List.map fst flow_presets

let flow_stages_of_preset name =
  match List.assoc_opt name flow_presets with
  | Some stages -> Ok stages
  | None ->
    Error
      (Printf.sprintf "unknown flow preset %S; valid presets: %s" name
         (String.concat ", " flow_preset_names))

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
  (match flow_stages_of_preset t.flow with
  | Error e -> reject "%s" e
  | Ok stages ->
    (* A move budget counts annealing moves: a flow with no sa stage
       would ignore it. *)
    if t.budget.max_moves <> None && not (List.mem "sa" stages) then
      reject "max_moves budgets the sa anneal, and flow %s has no sa stage" t.flow);
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

let with_trace_recording record t = { t with obs = { t.obs with record } }

let with_trace_file path t = { t with obs = { t.obs with trace_path = Some path } }

let with_report_file path t = { t with obs = { t.obs with report_path = Some path } }

let with_on_event f t = { t with obs = { t.obs with on_event = Some f } }

let with_flow_preset flow t = { t with flow }
