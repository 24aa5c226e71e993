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
  replicas : int;
  exchange : Portfolio.exchange;
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
    flow = c.C.flow;
    replicas = c.C.parallel.C.replicas;
    exchange = c.C.parallel.C.exchange;
    time_budget = c.C.budget.C.time_budget;
    max_moves = c.C.budget.C.max_moves;
  }

let config s ~n =
  let c = Profiles.tool_config ~seed:s.seed s.effort ~n in
  C.validated
    {
      c with
      C.budget = { c.C.budget with C.time_budget = s.time_budget; max_moves = s.max_moves };
      parallel = { c.C.parallel with C.replicas = s.replicas; exchange = s.exchange };
      obs = { c.C.obs with C.label = Some s.label };
      flow = s.flow;
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

(* Each net takes at most one track per channel, so no channel can use
   more tracks than the design has nets; refusing more keeps a mistyped
   --tracks from allocating a fabric the machine cannot hold. *)
let arch s nl =
  let nets = max 1 (Spr_netlist.Netlist.n_nets nl) in
  if s.tracks > nets then
    Error
      (Printf.sprintf "tracks must be at most the design's %d nets (got %d)" nets s.tracks)
  else Ok (Spr_arch.Arch.size_for ~tracks:s.tracks ~hscheme:s.scheme nl)

(* Each replica runs on a domain of its own and keeps a whole copy of
   the annealing state, so past the host's cores more replicas only
   time-share them. Four per core leaves room for a K=4 fleet on one
   core; 127 keeps a fleet inside the OCaml runtime's 128 domains. *)
let cores = Domain.recommended_domain_count ()

let max_replicas = min 127 (4 * cores)

let validate s =
  let errors = ref [] in
  let reject fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (match s.design with
  | Circuit name when Spr_netlist.Circuits.find name = None -> reject "%s" (unknown_circuit name)
  | Circuit _ | Blif _ -> ());
  if s.tracks < 1 then reject "tracks must be >= 1 (got %d)" s.tracks;
  if s.replicas > max_replicas then
    reject "replicas must be at most %d, four per core on this %d-core host (got %d)"
      max_replicas cores s.replicas;
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
      ("replicas", J.Int s.replicas);
      ("exchange", J.String (Portfolio.exchange_to_string s.exchange));
      ("time_budget", opt (fun b -> J.Float b) s.time_budget);
      ("max_moves", opt (fun m -> J.Int m) s.max_moves);
    ]

let of_json =
  J.decode ~what:"spec" (fun j ->
      let design =
        match J.dopt J.dstr j "circuit", J.dopt J.dstr j "blif" with
        | Some name, None -> Circuit name
        | None, Some text -> Blif text
        | None, None -> J.fail "provide a circuit name or BLIF text"
        | Some _, Some _ -> J.fail "provide a circuit name or BLIF text, not both"
      in
      (* Specs written while flows had per-stage budgets carry the
         field, empty unless a budget was set. *)
      (match J.dopt J.dfields j "stage_budgets" with
      | None | Some [] -> ()
      | Some _ -> J.fail "stage_budgets were deleted; bound the whole run with time_budget");
      (* Specs written while fleets had a second scheduler name it and
         carry its three knobs: "barrier" is the one policy left, and the
         knobs are ignored. *)
      (match J.dopt J.dstr j "scheduler" with
      | None | Some "barrier" -> ()
      | Some "racing" -> J.fail "the racing scheduler was deleted; coordinate a fleet with exchange"
      | Some other -> J.fail "unknown scheduler %s (the only scheduler is barrier)" other);
      let parsed of_string name = J.ok (of_string (J.dstr j name)) in
      {
        label = J.dstr j "label";
        design;
        tracks = J.dint j "tracks";
        scheme =
          parsed
            (fun s ->
              Option.to_result (Segmentation.scheme_of_string s)
                ~none:(Printf.sprintf "unknown segmentation scheme %s" s))
            "scheme";
        seed = J.dint j "seed";
        effort =
          parsed
            (fun s ->
              Option.to_result (Profiles.effort_of_string s)
                ~none:(Printf.sprintf "effort must be quick|standard|thorough (got %s)" s))
            "effort";
        flow = Option.value (J.dopt J.dstr j "flow") ~default:default.flow;
        replicas = J.dint j "replicas";
        exchange = parsed Portfolio.exchange_of_string "exchange";
        time_budget = J.dopt J.dfloat j "time_budget";
        max_moves = J.dopt J.dint j "max_moves";
      })

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
