(* Golden traces: prints the time-masked spr-trace-1 trace of one
   fixed-seed run, one event per line. The dune file in this directory
   diffs each configuration's output against its committed .expected
   file during `dune runtest`; after an intended behaviour change,
   `dune promote` takes the new traces.

     golden.exe serial-sa | fleet-best4 | fleet-indep | fleet-racing | ap-sa | seq
     golden.exe cli-racing | cli-ap-sa SPR

   The cli-* configurations drive the spr binary at path SPR instead of
   the library, so they pin what the command line maps its flags to. *)

module Config = Spr_core.Tool.Config
module Tool = Spr_core.Tool
module Trace = Spr_obs.Trace

let design () =
  let nl = Spr_netlist.Generator.(generate (default ~n_cells:48) ~seed:21) in
  let arch = Spr_arch.Arch.size_for ~tracks:18 nl in
  let n = Spr_netlist.Netlist.n_cells nl in
  let config =
    Config.(
      default |> with_seed 21
      |> with_anneal
           {
             (Spr_anneal.Engine.default_config ~n) with
             Spr_anneal.Engine.moves_per_temp = max 150 (2 * n);
             warmup_moves = 150;
             max_temperatures = 10;
           })
  in
  (arch, nl, config)

(* Run with a trace file and read it back, so the trace is the one a
   `spr route --trace` run writes. *)
let traced run config =
  let path = Filename.temp_file "golden" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      run (Config.with_trace_file path config);
      match Trace.of_file path with Ok events -> events | Error e -> failwith e)

let trace name =
  let arch, nl, config = design () in
  match name with
  | "serial-sa" -> traced (fun config -> ignore (Tool.run_exn ~config arch nl)) config
  | "fleet-best4" ->
    traced
      (fun config -> ignore (Tool.run_exn ~config arch nl))
      (Config.with_replicas ~exchange:(Spr_anneal.Portfolio.Best_exchange 4) 2 config)
  | "fleet-indep" ->
    traced
      (fun config -> ignore (Tool.run_exn ~config arch nl))
      (Config.with_replicas ~exchange:Spr_anneal.Portfolio.Independent 2 config)
  | "fleet-racing" ->
    (* Zero margin and a short warmup, so the fleet records a kill. *)
    let events =
      traced
        (fun config -> ignore (Tool.run_exn ~config arch nl))
        Config.(
          config |> with_replicas 2 |> with_scheduler_kind `Racing |> with_race_margin 0.0
          |> with_race_warmup 2 |> with_race_every 2)
    in
    if not (List.exists (fun e -> match e.Trace.ev with Trace.Sched_kill _ -> true | _ -> false) events)
    then failwith "fleet-racing: no replica was killed";
    events
  | "ap-sa" ->
    traced
      (fun config -> ignore (Spr_flow.run_exn ~config arch nl))
      (Config.with_flow_preset "ap+sa" config)
  | "seq" ->
    (* No sa stage: the flow frames the stage spans itself. *)
    traced
      (fun config -> ignore (Spr_flow.run_exn ~config arch nl))
      (Config.with_flow_preset "seq" config)
  | other -> failwith ("unknown configuration " ^ other)

(* One [spr route] run on a generated 50-cell design, read back from
   its --trace file. The design keeps a fixed file name in a fresh
   directory, because the run's label is the file's basename. *)
let cli_trace ~spr name =
  let flags =
    match name with
    | "cli-racing" ->
      [ "--parallel"; "2"; "--scheduler"; "racing"; "--race-margin"; "0"; "--race-warmup"; "2";
        "--race-every"; "2"; "--max-moves"; "3000" ]
    | "cli-ap-sa" -> [ "--flow"; "ap+sa"; "--max-moves"; "1500" ]
    | other -> failwith ("unknown configuration " ^ other)
  in
  let dir = Filename.temp_dir "golden" "" in
  let blif = Filename.concat dir "gen50.blif" and path = Filename.concat dir "trace.jsonl" in
  let spr_run args =
    let cmd = Filename.quote_command spr ~stdout:Filename.null args in
    if Sys.command cmd <> 0 then failwith ("failed: " ^ cmd)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      spr_run [ "generate"; "--cells"; "50"; "--seed"; "3"; "-o"; blif ];
      spr_run
        ([ "route"; blif; "--tracks"; "16"; "--effort"; "quick"; "--seed"; "7"; "--trace"; path ]
        @ flags);
      match Trace.of_file path with Ok events -> events | Error e -> failwith e)

let () =
  let events =
    match Sys.argv with
    | [| _; name |] -> trace name
    | [| _; name; spr |] -> cli_trace ~spr name
    | _ ->
      prerr_endline
        "usage: golden.exe serial-sa|fleet-best4|fleet-indep|fleet-racing|ap-sa|seq\n\
        \       golden.exe cli-racing|cli-ap-sa SPR";
      exit 2
  in
  List.iter (fun e -> print_endline (Trace.encode_line (Trace.mask_times e))) events
