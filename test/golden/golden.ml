(* Golden traces: prints the time-masked spr-trace-1 trace of one
   fixed-seed run, one event per line. The dune file in this directory
   diffs each configuration's output against its committed .expected
   file during `dune runtest`; after an intended behaviour change,
   `dune promote` takes the new traces.

     golden.exe serial-sa | fleet-best4 | fleet-indep | fleet-racing | ap-sa | seq *)

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

let () =
  match Sys.argv with
  | [| _; name |] ->
    List.iter
      (fun e -> print_endline (Trace.encode_line (Trace.mask_times e)))
      (trace name)
  | _ ->
    prerr_endline "usage: golden.exe serial-sa|fleet-best4|fleet-indep|fleet-racing|ap-sa|seq";
    exit 2
