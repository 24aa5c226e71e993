module J = Spr_obs.Json
module C = Spr_core.Config
module Profiles = Spr_experiments.Profiles
module Segmentation = Spr_arch.Segmentation
module Portfolio = Spr_anneal.Portfolio

type design = Circuit of string | Blif of string

type t = {
  label : string;
  design : design;
  tracks : int;
  scheme : Segmentation.scheme;
  seed : int;
  effort : Profiles.effort;
  flow : string;
  stage_budgets : (string * float) list;
  replicas : int;
  exchange : Portfolio.exchange;
  scheduler : C.scheduler;
  time_budget : float option;
  max_moves : int option;
}

let default =
  let c = C.default in
  {
    label = "s1";
    design = Circuit "s1";
    tracks = 28;
    scheme = Segmentation.Actel_like;
    seed = c.C.seed;
    effort = Profiles.Standard;
    flow = c.C.flow.C.preset;
    stage_budgets = c.C.flow.C.stage_budgets;
    replicas = c.C.parallel.C.replicas;
    exchange = c.C.parallel.C.exchange;
    scheduler = c.C.parallel.C.scheduler;
    time_budget = c.C.budget.C.time_budget;
    max_moves = c.C.budget.C.max_moves;
  }

let config s ~n =
  let c = Profiles.tool_config ~seed:s.seed s.effort ~n in
  C.validated
    {
      c with
      C.budget = { c.C.budget with C.time_budget = s.time_budget; max_moves = s.max_moves };
      parallel =
        {
          c.C.parallel with
          C.replicas = s.replicas;
          exchange = s.exchange;
          scheduler = s.scheduler;
        };
      obs = { c.C.obs with C.label = Some s.label };
      flow = { C.preset = s.flow; stage_budgets = s.stage_budgets };
    }

let unknown_circuit name =
  Printf.sprintf "unknown circuit %s (try: %s)" name
    (String.concat ", "
       (List.map (fun c -> c.Spr_netlist.Circuits.spec_name) Spr_netlist.Circuits.all))

let netlist s =
  match s.design with
  | Circuit name -> (
    match Spr_netlist.Circuits.find name with
    | Some c -> Ok (Spr_netlist.Circuits.make c)
    | None -> Error (unknown_circuit name))
  | Blif text ->
    Spr_netlist.Blif.parse_string text |> Result.map_error (Printf.sprintf "%s: %s" s.label)

let arch s nl = Spr_arch.Arch.size_for ~tracks:s.tracks ~hscheme:s.scheme nl

let validate s =
  let errors = ref [] in
  let reject fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (match s.design with
  | Circuit name when Spr_netlist.Circuits.find name = None -> reject "%s" (unknown_circuit name)
  | Circuit _ | Blif _ -> ());
  if s.tracks < 1 then reject "tracks must be >= 1 (got %d)" s.tracks;
  (match config s ~n:100 with Ok _ -> () | Error e -> reject "%s" e);
  match !errors with [] -> Ok () | errs -> Error (String.concat "; " (List.rev errs))

(* --- JSON --- *)

let to_json s =
  let opt f = function None -> J.Null | Some v -> f v in
  let circuit, blif =
    match s.design with
    | Circuit name -> (J.String name, J.Null)
    | Blif text -> (J.Null, J.String text)
  in
  J.Obj
    [
      ("label", J.String s.label);
      ("circuit", circuit);
      ("blif", blif);
      ("tracks", J.Int s.tracks);
      ("scheme", J.String (Segmentation.scheme_to_string s.scheme));
      ("seed", J.Int s.seed);
      ("effort", J.String (Profiles.effort_to_string s.effort));
      ("flow", J.String s.flow);
      ("stage_budgets", J.Obj (List.map (fun (stage, b) -> (stage, J.Float b)) s.stage_budgets));
      ("replicas", J.Int s.replicas);
      ("exchange", J.String (Portfolio.exchange_to_string s.exchange));
      ("scheduler", J.String (C.scheduler_to_string s.scheduler.C.kind));
      ("race_margin", J.Float s.scheduler.C.race_margin);
      ("race_warmup", J.Int s.scheduler.C.race_warmup);
      ("race_every", J.Int s.scheduler.C.race_every);
      ("time_budget", opt (fun b -> J.Float b) s.time_budget);
      ("max_moves", opt (fun m -> J.Int m) s.max_moves);
    ]

exception Decode of string

let of_json j =
  let fail fmt = Printf.ksprintf (fun m -> raise (Decode m)) fmt in
  let value conv name v =
    match conv v with Some x -> x | None -> fail "field %s: bad value" name
  in
  (* [opt] fields may be absent or null; [req] fields must be present. *)
  let opt conv name =
    match J.member name j with None | Some J.Null -> None | Some v -> Some (value conv name v)
  in
  let req conv name =
    match opt conv name with Some x -> x | None -> fail "missing field %s" name
  in
  let ok = function Ok x -> x | Error e -> fail "%s" e in
  let parsed of_string name = ok (of_string (req J.to_str name)) in
  let or_default x v = Option.value v ~default:x in
  let d = default.scheduler in
  match
    let design =
      match opt J.to_str "circuit", opt J.to_str "blif" with
      | Some name, None -> Circuit name
      | None, Some text -> Blif text
      | None, None -> fail "provide a circuit name or BLIF text"
      | Some _, Some _ -> fail "provide a circuit name or BLIF text, not both"
    in
    let stage_budgets =
      match J.member "stage_budgets" j with
      | None | Some J.Null -> default.stage_budgets
      | Some (J.Obj kvs) -> List.map (fun (stage, v) -> (stage, value J.to_float stage v)) kvs
      | Some _ -> fail "field stage_budgets: expected an object"
    in
    {
      label = req J.to_str "label";
      design;
      tracks = req J.to_int "tracks";
      scheme =
        parsed
          (fun s ->
            Option.to_result (Segmentation.scheme_of_string s)
              ~none:(Printf.sprintf "unknown segmentation scheme %s" s))
          "scheme";
      seed = req J.to_int "seed";
      effort =
        parsed
          (fun s ->
            Option.to_result (Profiles.effort_of_string s)
              ~none:(Printf.sprintf "effort must be quick|standard|thorough (got %s)" s))
          "effort";
      flow = or_default default.flow (opt J.to_str "flow");
      stage_budgets;
      replicas = req J.to_int "replicas";
      exchange = parsed Portfolio.exchange_of_string "exchange";
      scheduler =
        {
          C.kind =
            or_default d.C.kind
              (Option.map (fun s -> ok (C.scheduler_of_string s)) (opt J.to_str "scheduler"));
          race_margin = or_default d.C.race_margin (opt J.to_float "race_margin");
          race_warmup = or_default d.C.race_warmup (opt J.to_int "race_warmup");
          race_every = or_default d.C.race_every (opt J.to_int "race_every");
        };
      time_budget = opt J.to_float "time_budget";
      max_moves = opt J.to_int "max_moves";
    }
  with
  | s -> Ok s
  | exception Decode msg -> Error msg

(* --- run directories --- *)

let file dir = Filename.concat dir "spec.json"

let save ~dir s =
  Spr_util.Persist.ensure_dir dir;
  Spr_util.Persist.atomic_write (file dir) (J.to_string ~indent:true (to_json s) ^ "\n")

(* A missing or unreadable file's error already names it. *)
let load dir =
  let path = file dir in
  Result.bind (Spr_util.Persist.read_file path) (fun text ->
      Result.map_error (Printf.sprintf "%s: %s" path) (Result.bind (J.parse text) of_json))
