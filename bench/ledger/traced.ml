(* The traced run: the public calls [Tool.run] makes for a serial
   [spr route] under a move budget, replayed in this process with a
   span around each call. Nothing inside the library is traced; the
   split inside a move comes from the pipeline's own [Profile] after
   the run. *)

module P = Spr_layout.Placement
module Rs = Spr_route.Route_state
module Router = Spr_route.Router
module Sta = Spr_timing.Sta
module Config = Spr_core.Tool.Config
module Profile = Spr_core.Profile

type result = {
  outcome : Workload.outcome;
  spans : Span.t;
  pipeline : Spr_obs.Report.pipeline;
  propose_us : float list;  (** per-call latencies *)
  reject_us : float list;
}

(* [Tool]'s best-so-far metric: unrouted nets dominate, delay breaks ties. *)
let best_metric rs sta =
  (float_of_int (Rs.g_count rs + Rs.d_count rs) *. 1e9) +. Sta.critical_delay sta

let run (w : Workload.t) (input : Workload.input) ~seed =
  if not (Workload.serial w) then invalid_arg "Traced.run: serial workloads only";
  let tree = Span.create ~clock:Proc.now "run" in
  let root = Span.root tree in
  let span name f = Span.time tree (Span.child root name) f in
  let run_all () =
    let nl =
      span "netlist.load" (fun () ->
          let nl =
            match input.Workload.blif with
            | Some path -> (
              match Spr_netlist.Blif.parse_file path with Ok nl -> nl | Error e -> failwith e)
            | None -> (
              match w.Workload.source with
              | Workload.Circuit name -> Spr_netlist.Circuits.make_by_name name
              | Workload.Generated _ -> assert false)
          in
          (match Spr_netlist.Levelize.run nl with Ok _ -> () | Error e -> failwith e);
          nl)
    in
    let config = Workload.tool_config ~seed nl in
    let arch =
      Spr_arch.Arch.size_for ~tracks:w.Workload.tracks ~hscheme:Spr_arch.Segmentation.Actel_like nl
    in
    let rng, place, rs =
      span "layout.create" (fun () ->
          let rng = Spr_util.Rng.stream ~seed:config.Config.seed ~index:0 in
          let place = P.create_exn arch nl ~rng in
          (rng, place, Rs.create place))
    in
    span "route.initial" (fun () -> Router.route_all ~config:config.Config.router ~passes:2 rs);
    let sta = span "timing.create" (fun () -> Sta.create config.Config.delay_model rs) in
    let weights, pipeline =
      span "pipeline.create" (fun () ->
          let wc = config.Config.weights and mc = config.Config.moves in
          let weights =
            Spr_anneal.Weights.create ~g_per_net:wc.Config.g_per_net ~d_per_net:wc.Config.d_per_net
              ~t_emphasis:wc.Config.t_emphasis
              ~initial_delay:(Float.max 1e-6 (Sta.critical_delay sta))
              ()
          in
          ( weights,
            Spr_core.Move_pipeline.create ~route_grain:config.Config.parallel.Config.route_grain
              ~router:config.Config.router ~pinmap_move_prob:mc.Config.pinmap_move_prob
              ~enable_pinmap_moves:mc.Config.enable_pinmap_moves
              ~max_swap_tries:mc.Config.max_swap_tries ~place ~rs ~sta ~weights
              ~journal:(Spr_util.Journal.create ()) () ))
    in
    let anneal = Span.child root "anneal" in
    let propose = Span.child ~sample:true anneal "pipeline.propose" in
    let accept = Span.child anneal "pipeline.accept" in
    let reject = Span.child ~sample:true anneal "pipeline.reject" in
    let cost = Span.child anneal "anneal.cost" in
    let temperature = Span.child anneal "anneal.temperature" in
    let boundary = Span.child anneal "anneal.boundary" in
    let full_update = Span.child boundary "timing.full_update" in
    let encode = Span.child boundary "checkpoint.encode" in
    (* A move budget turns on best-so-far tracking at every boundary. *)
    let best = ref (infinity, None) in
    let report =
      Span.time tree anneal (fun () ->
          Spr_anneal.Engine.run ?config:config.Config.anneal
            ~on_temperature:(fun _ ->
              Span.time tree temperature (fun () -> Spr_anneal.Weights.adapt weights))
            ~on_checkpoint:(fun ~at:_ _ ->
              Span.time tree boundary (fun () ->
                  Span.time tree full_update (fun () -> Sta.full_update sta);
                  let metric = best_metric rs sta in
                  if metric < fst !best then begin
                    let text = Span.time tree encode (fun () -> Spr_core.Checkpoint.to_string rs) in
                    best := (metric, Some text)
                  end))
            ~should_stop:(fun ~moves ~accepted:_ -> moves >= w.Workload.max_moves)
            ~rng
            ~cost:(fun () ->
              Span.time tree cost (fun () ->
                  Spr_anneal.Weights.cost weights ~g:(Rs.g_count rs) ~d:(Rs.d_count rs)
                    ~delay:(Sta.critical_delay sta)))
            ~propose:(fun rng ->
              Span.time tree propose (fun () -> Spr_core.Move_pipeline.propose pipeline rng))
            ~accept:(fun () ->
              Span.time tree accept (fun () -> Spr_core.Move_pipeline.accept pipeline))
            ~reject:(fun () ->
              Span.time tree reject (fun () -> Spr_core.Move_pipeline.reject pipeline))
            ~n:(Spr_netlist.Netlist.n_cells nl) ())
    in
    (* An interrupted run delivers the best layout seen, if it beats the
       live one. *)
    let rs, sta =
      if report.Spr_anneal.Engine.completed then (rs, sta)
      else
        match !best with
        | best_cost, Some text when best_cost < best_metric rs sta ->
          span "best.restore" (fun () ->
              match Spr_core.Checkpoint.of_string nl text with
              | Ok best_rs -> (best_rs, Sta.create config.Config.delay_model best_rs)
              | Error e -> failwith e)
        | _ -> (rs, sta)
    in
    span "route.final" (fun () -> Router.route_all ~config:config.Config.router ~passes:3 rs);
    span "timing.full_update" (fun () -> Sta.full_update sta);
    let profile = Spr_core.Move_pipeline.profile pipeline in
    (* The phases inside [propose] become its child spans. *)
    List.iter
      (fun (ph, name) ->
        Span.add (Span.child propose name) ~seconds:(Profile.phase_seconds profile ph)
          ~calls:(Profile.phase_calls profile ph))
      [ (Profile.Propose, "pipeline.delta"); (Profile.Rip_up, "route.rip_up");
        (Profile.Global, "route.global"); (Profile.Detail, "route.detail");
        (Profile.Retime, "timing.retime") ];
    ( {
        Workload.moves = report.Spr_anneal.Engine.n_moves;
        g = Rs.g_count rs;
        d = Rs.d_count rs;
        delay_ns = Sta.critical_delay sta;
      },
      Profile.to_pipeline profile,
      (propose, reject) )
  in
  let outcome, pipeline, (propose, reject) = Span.time tree root run_all in
  let us node = List.map (fun s -> s *. 1e6) (Span.samples node) in
  { outcome; spans = tree; pipeline; propose_us = us propose; reject_us = us reject }
