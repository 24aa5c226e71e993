module J = Spr_obs.Json

let outcome_schema = "spr-serve-outcome-1"

let outcome_to_json ~ok ~status ~error ~report =
  J.Obj
    [
      ("schema", J.String outcome_schema);
      ("ok", J.Bool ok);
      ("status", match status with Some s -> J.String s | None -> J.Null);
      ("error", match error with Some e -> J.String e | None -> J.Null);
      ("report", match report with Some r -> r | None -> J.Null);
    ]

let read_outcome path =
  Result.bind (Spr_util.Persist.read_file path) (fun text ->
      Result.map_error (Printf.sprintf "%s: %s" path)
        (Result.bind (J.parse text)
           (J.decode ~what:"outcome" (fun j ->
                let schema = J.dstr j "schema" in
                if schema <> outcome_schema then J.fail "unknown outcome schema %s" schema;
                if J.dbool j "ok" then `Ok (J.dstr j "status", J.dopt J.get j "report")
                else `Error (J.dstr j "error")))))

let write_outcome ~state_dir ~job json =
  Spr_util.Persist.atomic_write ~durable:true
    (Job.outcome_file ~state_dir job)
    (J.to_string ~indent:true json ^ "\n")

(* Serialize pipe writes: with a fleet running, [on_event] fires on
   whichever replica domain emitted the event. After the first EPIPE
   (daemon gone) streaming stops for good but the run carries on — the
   durable outcome file is what recovery reads. *)
let make_streamer pipe =
  let lock = Mutex.create () in
  let dead = ref false in
  fun msg ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        if not !dead then
          try Frame.write pipe (Protocol.worker_to_json msg)
          with Unix.Unix_error _ | Sys_error _ -> dead := true)

let redirect_to_log ~state_dir ~job =
  let fd =
    Unix.openfile (Job.log_file ~state_dir job)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  Unix.dup2 fd Unix.stdout;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd

(* The job's own config plus where this invocation writes: the run
   directory, trace, report, and the live event stream. *)
let job_config (spec : Spec.t) ~state_dir ~job ~n ~stream =
  let open Spr_core.Config in
  Spec.config spec ~n
  |> Result.map (fun config ->
         config
         |> with_run_dir (Job.run_dir ~state_dir job)
         |> with_trace_file (Job.trace_file ~state_dir job)
         |> with_report_file (Job.report_file ~state_dir job)
         |> with_on_event (fun ev -> stream (Protocol.W_event ev)))

let finish_error ~state_dir ~job ~stream msg =
  write_outcome ~state_dir ~job (outcome_to_json ~ok:false ~status:None ~error:(Some msg) ~report:None);
  stream (Protocol.W_error msg);
  exit 1

let main ~state_dir ~job ~pipe =
  redirect_to_log ~state_dir ~job;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stream = make_streamer pipe in
  let spec = job.Job.spec in
  match Spec.netlist spec with
  | Error e -> finish_error ~state_dir ~job ~stream ("netlist: " ^ e)
  | Ok nl -> (
    match job_config spec ~state_dir ~job ~n:(Spr_netlist.Netlist.n_cells nl) ~stream with
    | Error e -> finish_error ~state_dir ~job ~stream ("config: " ^ e)
    | Ok config -> (
      match Spec.arch spec nl with
      | Error e -> finish_error ~state_dir ~job ~stream ("arch: " ^ e)
      | Ok arch -> (
        let run_dir = Job.run_dir ~state_dir job in
        Spr_util.Persist.ensure_dir run_dir;
        match
          (* Resume-or-fresh is one call: a multi-stage flow restarts
             after its latest loadable stage checkpoint, and sa replicas
             with V2 snapshots in the run dir pick up where they stopped;
             anything without usable state starts deterministically from
             scratch.
             SIGTERM lands in Tool's handler and stops whichever flow
             stage is running gracefully. *)
          Spr_core.Tool.with_signal_handlers (fun () ->
              Spr_flow.run ~config ~resume:true arch nl)
        with
        | Ok r ->
          Spr_core.Checkpoint.save r.Spr_flow.f_route (Job.layout_file ~state_dir job);
          (* Flows without an sa stage have no Tool run report; their
             outcome carries the status alone. *)
          let status = Spr_core.Tool.status_to_string r.Spr_flow.f_status in
          let report =
            Option.map (fun p -> Spr_obs.Report.to_json p.Spr_core.Tool.p_report) r.Spr_flow.f_fleet
          in
          (* Outcome before result frame: if the daemon dies between the
             two, restart recovery still finds the result on disk. *)
          write_outcome ~state_dir ~job
            (outcome_to_json ~ok:true ~status:(Some status) ~error:None ~report);
          stream (Protocol.W_result { status; report });
          exit 0
        | Error e -> finish_error ~state_dir ~job ~stream (Spr_core.Tool.error_to_string e)
        | exception exn ->
          finish_error ~state_dir ~job ~stream ("worker raised: " ^ Printexc.to_string exn))))
