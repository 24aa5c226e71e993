module J = Spr_obs.Json
module C = Spr_core.Tool.Config

type row = {
  flow : string;
  circuit : string;
  seed : int;
  routed : bool;
  g : int;
  d : int;
  delay_ns : float;
  sa_moves : int;
  seconds : float;
  seed_temperature : float option;
}

let default_flows = [ "sa"; "ap+sa"; "ap+greedy+route"; "seq" ]

let default_circuits = [ "s1"; "bw" ]

let run_one ~effort ~tracks ~flow ~circuit ~seed =
  let nl = Spr_netlist.Circuits.make_by_name circuit in
  let n = Spr_netlist.Netlist.n_cells nl in
  let arch = Profiles.arch_for ~tracks nl in
  let config = Profiles.tool_config ~seed effort ~n |> C.with_flow_preset flow in
  let r = Spr_flow.run_exn ~config arch nl in
  {
    flow;
    circuit;
    seed;
    routed = r.Spr_flow.f_fully_routed;
    g = r.Spr_flow.f_g;
    d = r.Spr_flow.f_d;
    delay_ns = r.Spr_flow.f_critical_delay;
    sa_moves = Spr_flow.sa_moves r;
    seconds = Spr_flow.stage_seconds r;
    seed_temperature = r.Spr_flow.f_seed_temperature;
  }

let run ?(effort = Profiles.Quick) ?(tracks = 28) ?(flows = default_flows)
    ?(circuits = default_circuits) ?(seeds = [ 1; 2 ]) () =
  List.concat_map
    (fun circuit ->
      List.concat_map
        (fun seed -> List.map (fun flow -> run_one ~effort ~tracks ~flow ~circuit ~seed) flows)
        seeds)
    circuits

(* The headline derived number: across circuit×seed cells where both
   sa and ap+sa finished, how many annealing moves the analytically
   seeded anneal needed relative to the cold-start one, and whether it
   held quality (unrouted count equal or better, critical delay at most
   2% worse). *)
type comparison = {
  cells : int;
  move_ratio : float;  (** mean of ap+sa moves / sa moves. *)
  quality_held : int;  (** Cells with unrouted <= and delay <= 1.02x. *)
}

let compare_seeded rows =
  let cells =
    List.filter_map
      (fun b ->
        if b.flow <> "sa" then None
        else
          List.find_opt
            (fun s -> s.flow = "ap+sa" && s.circuit = b.circuit && s.seed = b.seed)
            rows
          |> Option.map (fun s -> (b, s)))
      rows
  in
  let ratios =
    List.map
      (fun (b, s) ->
        if b.sa_moves = 0 then 1.0 else float_of_int s.sa_moves /. float_of_int b.sa_moves)
      cells
  in
  let quality_held =
    List.length
      (List.filter
         (fun (b, s) -> s.d + s.g <= b.d + b.g && s.delay_ns <= (b.delay_ns *. 1.02) +. 1e-9)
         cells)
  in
  {
    cells = List.length cells;
    move_ratio =
      (if ratios = [] then 1.0
       else List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios));
    quality_held;
  }

let render rows =
  let header =
    [ "Flow"; "Circuit"; "seed"; "routed"; "G"; "D"; "delay"; "sa moves"; "secs"; "T0" ]
  in
  let body =
    List.map
      (fun r ->
        [
          r.flow;
          r.circuit;
          string_of_int r.seed;
          string_of_bool r.routed;
          string_of_int r.g;
          string_of_int r.d;
          Printf.sprintf "%.2f ns" r.delay_ns;
          string_of_int r.sa_moves;
          Printf.sprintf "%.1f" r.seconds;
          (match r.seed_temperature with Some t -> Printf.sprintf "%.3g" t | None -> "-");
        ])
      rows
  in
  Spr_util.Table.render
    ~align:
      Spr_util.Table.
        [ Left; Left; Right; Right; Right; Right; Right; Right; Right; Right ]
    ~header body

let schema = Spr_obs.Bench.schema_version

let to_json ~effort rows =
  let cmp = compare_seeded rows in
  Spr_obs.Bench.payload ~bench:"flows" ~effort:(Profiles.effort_to_string effort)
    [
      ( "rows",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("flow", J.String r.flow);
                   ("circuit", J.String r.circuit);
                   ("seed", J.Int r.seed);
                   ("routed", J.Bool r.routed);
                   ("g", J.Int r.g);
                   ("d", J.Int r.d);
                   ("delay_ns", J.Float r.delay_ns);
                   ("sa_moves", J.Int r.sa_moves);
                   ("seconds", J.Float r.seconds);
                   ( "seed_temperature",
                     match r.seed_temperature with None -> J.Null | Some t -> J.Float t );
                 ])
             rows) );
      ( "seeded_vs_cold",
        J.Obj
          [
            ("cells", J.Int cmp.cells);
            ("move_ratio", J.Float cmp.move_ratio);
            ("quality_held", J.Int cmp.quality_held);
          ] );
    ]
