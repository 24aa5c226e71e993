(* Tests for the spr serve job service: framing and protocol codecs,
   the durable job store, and end-to-end daemon behaviour driven
   through the real spr binary — worker crash isolation, adversarial
   socket input, client disconnects, admission control, graceful
   drain, and the headline property: a daemon killed with -9 mid-job
   and restarted finishes the job bit-identically to a service that
   was never killed. *)

module Frame = Spr_serve.Frame
module Protocol = Spr_serve.Protocol
module Job = Spr_serve.Job
module Spec = Spr_serve.Spec
module Client = Spr_serve.Client
module Json = Spr_obs.Json
module Trace = Spr_obs.Trace

let spr =
  Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat ".." "bin/spr_cli.exe")

let rec rmrf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rmrf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* --- framing --- *)

let test_frame_roundtrip () =
  let msgs =
    [
      Json.Null;
      Json.Obj [ ("a", Json.Int 1); ("b", Json.String "x\ny") ];
      Json.List [ Json.Float 1.5; Json.Bool true ];
    ]
  in
  let wire = String.concat "" (List.map Frame.encode msgs) in
  (* feed the whole stream one byte at a time: frame boundaries must
     not depend on read boundaries *)
  let dec = Frame.decoder () in
  let got = ref [] in
  String.iter
    (fun ch ->
      Frame.feed dec (String.make 1 ch);
      let rec drain () =
        match Frame.next dec with
        | `Frame j ->
          got := j :: !got;
          drain ()
        | `Need_more -> ()
        | `Corrupt msg -> Alcotest.failf "corrupt on valid stream: %s" msg
      in
      drain ())
    wire;
  Alcotest.(check int) "all frames decoded" (List.length msgs) (List.length !got);
  List.iter2
    (fun want got -> Alcotest.(check string) "payload" (Json.to_string want) (Json.to_string got))
    msgs (List.rev !got)

let test_frame_adversarial () =
  let rng = Spr_util.Rng.create 7 in
  let cases = Spr_check.Service.garbage_frames ~rng ~n:200 in
  List.iter
    (fun bytes ->
      let dec = Frame.decoder () in
      Frame.feed dec bytes;
      (* must never raise; once corrupt, stays corrupt *)
      match Frame.next dec with
      | `Corrupt _ -> (
        Frame.feed dec (Frame.encode Json.Null);
        match Frame.next dec with
        | `Corrupt _ -> ()
        | _ -> Alcotest.fail "corrupt decoder resynchronized")
      | `Need_more | `Frame _ -> ())
    cases

(* --- protocol codecs --- *)

let roundtrip_response r =
  match Protocol.response_of_json (Protocol.response_to_json r) with
  | Error e -> Alcotest.failf "response did not round-trip: %s" e
  | Ok r' ->
    Alcotest.(check string) "response round trip"
      (Json.to_string (Protocol.response_to_json r))
      (Json.to_string (Protocol.response_to_json r'))

let test_protocol_roundtrip () =
  let spec = { Spec.default with label = "t" } in
  (match Protocol.request_of_json (Protocol.request_to_json (Protocol.Submit spec)) with
  | Ok (Protocol.Submit s) -> Alcotest.(check string) "spec label" "t" s.Spec.label
  | Ok _ -> Alcotest.fail "wrong request decoded"
  | Error e -> Alcotest.failf "submit round trip: %s" e);
  List.iter roundtrip_response
    [
      Protocol.Accepted "job-00000001";
      Protocol.Rejected (Protocol.Overloaded { queued = 3; backoff_s = 12.5 });
      Protocol.Rejected Protocol.Draining;
      Protocol.Rejected (Protocol.Invalid "no");
      Protocol.Job_done
        { id = "job-00000001"; status = "completed"; report = Some (Json.Obj [ ("g", Json.Int 0) ]) };
      Protocol.Job_failed { id = "j"; error = "worker killed by SIGKILL" };
      Protocol.Job_parked { id = "j"; message = "draining" };
      Protocol.Job_cancelled "j";
      Protocol.Jobs_list
        [
          {
            Protocol.row_id = "job-00000001";
            row_label = "s1";
            row_state = "queued";
            row_submitted_at = 1.0;
            row_updated_at = 2.0;
            row_pid = Some 42;
          };
        ];
      Protocol.Error "nope";
      Protocol.Pong;
    ];
  (* malformed inputs are structured errors, never raises *)
  List.iter
    (fun j ->
      match Protocol.request_of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed request decoded")
    [ Json.Null; Json.Obj [ ("req", Json.Int 3) ]; Json.Obj [ ("req", Json.String "nope") ] ]

(* --- the run spec --- *)

(* The one spec codec: every field round-trips (a BLIF design byte for
   byte), specs written before the stage budgets and race knobs existed
   decode with the defaults, and misspelt values are decode errors
   naming the valid ones, so no spelling ever reaches a run. *)
let test_spec_codec () =
  let fields spec =
    match Spec.to_json spec with Json.Obj kvs -> kvs | _ -> Alcotest.fail "spec_to_json shape"
  in
  let decode kvs = Spec.of_json (Json.Obj kvs) in
  let spec =
    {
      Spec.default with
      label = "gen";
      design = Blif ".model m\n.inputs a\n.outputs b\n.names a b\n1 1\n.end\n";
      stage_budgets = [ ("sa", 0.5) ];
      scheduler = { Spec.default.scheduler with kind = `Racing; race_margin = 0.25 };
      time_budget = Some 2.5;
      max_moves = Some 300;
    }
  in
  (match decode (fields spec) with
  | Ok s -> Alcotest.(check bool) "round trip" true (s = spec)
  | Error e -> Alcotest.failf "round trip: %s" e);
  let without names = List.filter (fun (k, _) -> not (List.mem k names)) (fields Spec.default) in
  (match
     decode
       (without [ "flow"; "stage_budgets"; "scheduler"; "race_margin"; "race_warmup"; "race_every" ])
   with
  | Ok s -> Alcotest.(check bool) "old job.json decodes with defaults" true (s = Spec.default)
  | Error e -> Alcotest.failf "old spec rejected: %s" e);
  let with_field k v = (k, v) :: without [ k ] in
  List.iter
    (fun (what, kvs, needle) ->
      match decode kvs with
      | Ok _ -> Alcotest.failf "%s decoded" what
      | Error e ->
        let n = String.length needle in
        let rec scan i = i + n <= String.length e && (String.sub e i n = needle || scan (i + 1)) in
        Alcotest.(check bool) (Printf.sprintf "%s: %s names %s" what e needle) true (scan 0))
    [
      ("no design", with_field "circuit" Json.Null, "provide a circuit name");
      ("two designs", with_field "blif" (Json.String ".end"), "not both");
      ("bad effort", with_field "effort" (Json.String "heroic"), "quick|standard|thorough");
      ("bad scheme", with_field "scheme" (Json.String "zigzag"), "zigzag");
      ("bad exchange", with_field "exchange" (Json.String "best:x"), "exchange period");
    ]

(* --- job store --- *)

let test_job_store () =
  let state_dir = "serve-store" in
  rmrf state_dir;
  let spec = { Spec.default with label = "a" } in
  (match Spec.validate spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid spec rejected: %s" e);
  (match Spec.validate { spec with replicas = 0; tracks = 0 } with
  | Error e ->
    Alcotest.(check bool) "both problems reported" true
      (String.length e > 10 && String.contains e ';')
  | Ok () -> Alcotest.fail "zero replicas/tracks accepted");
  let a = Job.create ~state_dir ~spec ~now:1.0 in
  let b = Job.create ~state_dir ~spec:{ spec with Spec.label = "b" } ~now:2.0 in
  Alcotest.(check string) "sequential ids" "job-00000002" b.Job.id;
  a.Job.state <- Job.Running 1234;
  Job.save ~state_dir a;
  (* a malformed record is a diagnostic, not a crash, and never trusted *)
  let cdir = Job.dir ~state_dir "job-00000003" in
  Spr_util.Persist.ensure_dir cdir;
  let oc = open_out (Filename.concat cdir "job.json") in
  output_string oc "{not json";
  close_out oc;
  let jobs, bad = Job.scan ~state_dir in
  Alcotest.(check int) "two good jobs" 2 (List.length jobs);
  Alcotest.(check int) "one diagnostic" 1 (List.length bad);
  (match jobs with
  | [ a'; b' ] ->
    Alcotest.(check bool) "running state round-trips" true (a'.Job.state = Job.Running 1234);
    Alcotest.(check string) "label round-trips" "b" b'.Job.spec.Spec.label
  | _ -> Alcotest.fail "scan order");
  rmrf state_dir

(* --- end-to-end helpers --- *)

let start_daemon ?(workers = 2) ?(max_queue = 16) state_dir =
  Spr_util.Persist.ensure_dir state_dir;
  let log =
    Unix.openfile
      (Filename.concat state_dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let pid =
    Unix.create_process spr
      [|
        spr; "serve"; "--state-dir"; state_dir; "--workers"; string_of_int workers;
        "--max-queue"; string_of_int max_queue;
      |]
      Unix.stdin log log
  in
  Unix.close log;
  let socket = Filename.concat state_dir "serve.sock" in
  let rec wait n =
    if n > 100 then Alcotest.failf "daemon on %s did not come up" state_dir
    else
      match Client.ping ~socket with
      | Ok () -> ()
      | Error _ ->
        Unix.sleepf 0.1;
        wait (n + 1)
  in
  wait 0;
  (pid, socket)

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))

let find_job ~state_dir id =
  let jobs, _ = Job.scan ~state_dir in
  match List.find_opt (fun j -> j.Job.id = id) jobs with
  | Some j -> j
  | None -> Alcotest.failf "job %s missing from %s" id state_dir

(* Poll the durable record until the job reaches a terminal state. *)
let wait_terminal ?(timeout = 120.0) ~state_dir id =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    let j = find_job ~state_dir id in
    match j.Job.state with
    | Job.Done _ | Job.Failed _ | Job.Cancelled -> j
    | Job.Queued | Job.Running _ | Job.Parked ->
      if Unix.gettimeofday () -. t0 > timeout then
        Alcotest.failf "%s stuck in state %s" id (Job.state_to_string j.Job.state)
      else begin
        Unix.sleepf 0.2;
        go ()
      end
  in
  go ()

let wait_worker_pid ?(timeout = 30.0) ~state_dir id =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match (find_job ~state_dir id).Job.state with
    | Job.Running pid -> pid
    | st ->
      if Unix.gettimeofday () -. t0 > timeout then
        Alcotest.failf "%s never started (state %s)" id (Job.state_to_string st)
      else begin
        Unix.sleepf 0.1;
        go ()
      end
  in
  go ()

let snapshot_count ~state_dir id =
  let j = find_job ~state_dir id in
  match Sys.readdir (Job.run_dir ~state_dir j) with
  | exception Sys_error _ -> 0
  | entries ->
    Array.fold_left
      (fun n f -> if String.length f > 5 && String.sub f 0 5 = "snap-" then n + 1 else n)
      0 entries

let read_file path =
  match Spr_util.Persist.read_file path with
  | Ok text -> text
  | Error e -> Alcotest.failf "%s: %s" path e

(* The comparable outcome of a finished job: final layout bytes plus
   the Run_end cost components from its trace. *)
let job_outcome ~state_dir id =
  let j = find_job ~state_dir id in
  let layout = read_file (Job.layout_file ~state_dir j) in
  match Trace.of_file (Job.trace_file ~state_dir j) with
  | Error e -> Error ("trace: " ^ e)
  | Ok events -> (
    match
      List.find_map
        (fun e ->
          match e.Trace.ev with
          | Trace.Run_end { g; d; delay_ns; _ } -> Some (g, d, delay_ns)
          | _ -> None)
        events
    with
    | None -> Error "trace has no run_end"
    | Some (g, d, delay_ns) ->
      Ok { Spr_check.Crash.o_layout = layout; o_g = g; o_d = d; o_critical_delay = delay_ns })

let quick_spec ?(label = "quick") ?(seed = 3) () =
  { Spec.default with label; seed; effort = Spr_experiments.Profiles.Quick }

(* s1 at standard effort anneals for well over ten seconds — long
   enough to kill things mid-flight deterministically. *)
let long_spec ?(seed = 7) () =
  { Spec.default with label = "long"; seed; effort = Spr_experiments.Profiles.Standard }

(* --- end-to-end: happy path --- *)

let test_submit_completes () =
  let state_dir = "serve-e2e" in
  rmrf state_dir;
  let pid, socket = start_daemon state_dir in
  Fun.protect
    ~finally:(fun () -> stop_daemon pid)
    (fun () ->
      let events = ref 0 in
      match Client.submit ~on_event:(fun _ -> incr events) ~socket (quick_spec ()) with
      | Ok (Protocol.Job_done { id; status; report }) ->
        Alcotest.(check string) "status" "completed" status;
        Alcotest.(check bool) "events streamed live" true (!events > 0);
        (match report with
        | Some rj -> (
          match Spr_obs.Report.of_json rj with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "streamed report invalid: %s" e)
        | None -> Alcotest.fail "done without a report");
        let j = find_job ~state_dir id in
        Alcotest.(check bool) "layout written" true (Sys.file_exists (Job.layout_file ~state_dir j));
        (match Json.parse (read_file (Job.report_file ~state_dir j)) with
        | Error e -> Alcotest.failf "report.json unparsable: %s" e
        | Ok rj -> (
          match Spr_obs.Report.of_json rj with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "report.json invalid: %s" e))
      | Ok r ->
        Alcotest.failf "unexpected terminal: %s" (Json.to_string (Protocol.response_to_json r))
      | Error e -> Alcotest.failf "submit: %s" e);
  rmrf state_dir

(* --- adversarial socket input --- *)

let test_garbage_frames_keep_daemon_up () =
  let state_dir = "serve-garbage" in
  rmrf state_dir;
  let pid, socket = start_daemon state_dir in
  Fun.protect
    ~finally:(fun () -> stop_daemon pid)
    (fun () ->
      let rng = Spr_util.Rng.create 11 in
      List.iter
        (fun bytes ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX socket);
          (try
             let _ = Unix.write_substring fd bytes 0 (String.length bytes) in
             ()
           with Unix.Unix_error _ -> ());
          (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
          (* drain whatever structured reply comes back, then close *)
          let buf = Bytes.create 4096 in
          (try
             while Unix.read fd buf 0 4096 > 0 do
               ()
             done
           with Unix.Unix_error _ -> ());
          Unix.close fd)
        (Spr_check.Service.garbage_frames ~rng ~n:60);
      (* the daemon survived all of it and still serves *)
      match Client.ping ~socket with
      | Ok () -> ()
      | Error e -> Alcotest.failf "daemon died under garbage input: %s" e);
  rmrf state_dir

(* --- client disconnect mid-stream --- *)

let test_client_disconnect_job_survives () =
  let state_dir = "serve-disconnect" in
  rmrf state_dir;
  let pid, socket = start_daemon state_dir in
  Fun.protect
    ~finally:(fun () -> stop_daemon pid)
    (fun () ->
      match Client.open_submit ~socket (quick_spec ~label:"orphaned" ()) with
      | Error _ -> Alcotest.fail "submission rejected"
      | Ok (conn, id) ->
        (* hang up while the job is live *)
        Client.close conn;
        let j = wait_terminal ~state_dir id in
        (match j.Job.state with
        | Job.Done status -> Alcotest.(check string) "completed unwatched" "completed" status
        | st -> Alcotest.failf "job ended %s" (Job.state_to_string st)));
  rmrf state_dir

(* --- worker crash isolation --- *)

let test_worker_kill_isolated () =
  let state_dir = "serve-isolation" in
  rmrf state_dir;
  let pid, socket = start_daemon ~workers:2 state_dir in
  Fun.protect
    ~finally:(fun () -> stop_daemon pid)
    (fun () ->
      match Client.open_submit ~socket (long_spec ()) with
      | Error _ -> Alcotest.fail "long job rejected"
      | Ok (long_conn, long_id) -> (
        let wpid = wait_worker_pid ~state_dir long_id in
        (* second, concurrent job on the other worker slot *)
        match Client.open_submit ~socket (quick_spec ~label:"bystander" ()) with
        | Error _ -> Alcotest.fail "bystander rejected"
        | Ok (quick_conn, _quick_id) ->
          (try Unix.kill wpid Sys.sigkill with Unix.Unix_error _ -> ());
          (* the killed worker's client gets a structured failure... *)
          (match Client.await long_conn with
          | Ok (Protocol.Job_failed { error; _ }) ->
            Alcotest.(check bool) "failure names the signal" true
              (String.length error > 0)
          | Ok r ->
            Alcotest.failf "killed worker terminal: %s"
              (Json.to_string (Protocol.response_to_json r))
          | Error e -> Alcotest.failf "killed worker await: %s" e);
          (* ...while the concurrent job is untouched *)
          (match Client.await quick_conn with
          | Ok (Protocol.Job_done { status; _ }) ->
            Alcotest.(check string) "bystander completed" "completed" status
          | Ok r ->
            Alcotest.failf "bystander terminal: %s"
              (Json.to_string (Protocol.response_to_json r))
          | Error e -> Alcotest.failf "bystander await: %s" e);
          match (find_job ~state_dir long_id).Job.state with
          | Job.Failed _ -> ()
          | st -> Alcotest.failf "killed job recorded %s" (Job.state_to_string st)));
  rmrf state_dir

(* --- admission control and cancellation --- *)

let test_admission_and_cancel () =
  let state_dir = "serve-admission" in
  rmrf state_dir;
  let pid, socket = start_daemon ~workers:1 ~max_queue:1 state_dir in
  Fun.protect
    ~finally:(fun () -> stop_daemon pid)
    (fun () ->
      (* invalid specs are rejected before a job id is allocated *)
      (match Client.submit ~socket { (quick_spec ()) with tracks = 0 } with
      | Ok (Protocol.Rejected (Protocol.Invalid _)) -> ()
      | _ -> Alcotest.fail "invalid spec not rejected");
      match Client.open_submit ~socket (long_spec ()) with
      | Error _ -> Alcotest.fail "first job rejected"
      | Ok (running_conn, running_id) -> (
        let _ = wait_worker_pid ~state_dir running_id in
        (* worker busy: this one queues *)
        match Client.open_submit ~socket (quick_spec ~label:"queued" ()) with
        | Error _ -> Alcotest.fail "queueable job rejected"
        | Ok (queued_conn, queued_id) ->
          (* queue full: overloaded, with a positive backoff *)
          (match Client.submit ~socket (quick_spec ~label:"excess" ()) with
          | Ok (Protocol.Rejected (Protocol.Overloaded { queued; backoff_s })) ->
            Alcotest.(check int) "queue depth reported" 1 queued;
            Alcotest.(check bool) "positive backoff" true (backoff_s > 0.0)
          | Ok r ->
            Alcotest.failf "expected overloaded, got %s"
              (Json.to_string (Protocol.response_to_json r))
          | Error e -> Alcotest.failf "overload submit: %s" e);
          (* cancel the running job: graceful stop, structured terminal *)
          (match Client.cancel ~socket running_id with
          | Ok (Protocol.Job_cancelled _) -> ()
          | Ok r ->
            Alcotest.failf "cancel reply: %s" (Json.to_string (Protocol.response_to_json r))
          | Error e -> Alcotest.failf "cancel: %s" e);
          (match Client.await running_conn with
          | Ok (Protocol.Job_cancelled _) -> ()
          | Ok (Protocol.Job_done _) -> ()  (* completed in the race window *)
          | Ok r ->
            Alcotest.failf "cancelled terminal: %s"
              (Json.to_string (Protocol.response_to_json r))
          | Error e -> Alcotest.failf "cancelled await: %s" e);
          (* the queued job now gets the worker and completes *)
          (match Client.await queued_conn with
          | Ok (Protocol.Job_done { status; _ }) ->
            Alcotest.(check string) "queued job ran after cancel" "completed" status
          | Ok r ->
            Alcotest.failf "queued terminal: %s" (Json.to_string (Protocol.response_to_json r))
          | Error e -> Alcotest.failf "queued await: %s" e);
          ignore queued_id));
  rmrf state_dir

(* --- graceful drain --- *)

let test_drain_parks_and_resumes () =
  let state_dir = "serve-drain" in
  rmrf state_dir;
  let pid, socket = start_daemon ~workers:1 state_dir in
  let id =
    match Client.open_submit ~socket (long_spec ()) with
    | Error _ ->
      stop_daemon pid;
      Alcotest.fail "job rejected"
    | Ok (conn, id) ->
      let _ = wait_worker_pid ~state_dir id in
      Client.close conn;
      id
  in
  (* SIGTERM: daemon stops accepting, workers checkpoint, job parks *)
  stop_daemon pid;
  (match (find_job ~state_dir id).Job.state with
  | Job.Parked -> ()
  | st -> Alcotest.failf "after drain, job is %s (wanted parked)" (Job.state_to_string st));
  Alcotest.(check bool) "socket removed on drain" false
    (Sys.file_exists (Filename.concat state_dir "serve.sock"));
  (* restart: the parked job resumes from its snapshots and finishes *)
  let pid2, _socket2 = start_daemon ~workers:1 state_dir in
  Fun.protect
    ~finally:(fun () -> stop_daemon pid2)
    (fun () ->
      match (wait_terminal ~state_dir id).Job.state with
      | Job.Done _ -> ()
      | st -> Alcotest.failf "resumed job ended %s" (Job.state_to_string st));
  rmrf state_dir

(* --- the headline property: daemon kill -9 + restart ≡ uninterrupted --- *)

let test_daemon_kill9_recovery_bit_identical () =
  let ref_dir = "serve-ref" in
  let crash_dir = "serve-crash" in
  let spec = long_spec ~seed:5 () in
  let daemon = ref None in
  let stop () =
    (match !daemon with Some p -> kill9 p | None -> ());
    daemon := None
  in
  let runner =
    {
      Spr_check.Service.reference =
        (fun () ->
          rmrf ref_dir;
          let pid, socket = start_daemon ~workers:1 ref_dir in
          daemon := Some pid;
          let r =
            match Client.submit ~socket spec with
            | Ok (Protocol.Job_done { id; _ }) -> job_outcome ~state_dir:ref_dir id
            | Ok r -> Error (Json.to_string (Protocol.response_to_json r))
            | Error e -> Error e
          in
          stop_daemon pid;
          daemon := None;
          r);
      interrupted =
        (fun ~kill_after_snapshots ->
          let pid, socket = start_daemon ~workers:1 crash_dir in
          daemon := Some pid;
          match Client.open_submit ~socket spec with
          | Error _ -> Error "submission rejected"
          | Ok (conn, id) ->
            let rec wait_snapshots n =
              if n > 600 then Error "no snapshots appeared"
              else
                let j = find_job ~state_dir:crash_dir id in
                match j.Job.state with
                | Job.Done _ | Job.Failed _ | Job.Cancelled -> Ok false
                | _ ->
                  if snapshot_count ~state_dir:crash_dir id >= kill_after_snapshots then Ok true
                  else begin
                    Unix.sleepf 0.1;
                    wait_snapshots (n + 1)
                  end
            in
            let reached = wait_snapshots 0 in
            let wpid =
              match (find_job ~state_dir:crash_dir id).Job.state with
              | Job.Running p -> Some p
              | _ -> None
            in
            (* the crash: daemon and worker die together, no goodbye *)
            stop ();
            (match wpid with
            | Some p -> (try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
            | None -> ());
            Client.close conn;
            reached);
      recover =
        (fun () ->
          let pid, _socket = start_daemon ~workers:1 crash_dir in
          daemon := Some pid;
          let jobs, _ = Job.scan ~state_dir:crash_dir in
          match jobs with
          | [ j ] -> (
            match (wait_terminal ~state_dir:crash_dir j.Job.id).Job.state with
            | Job.Done _ ->
              let r = job_outcome ~state_dir:crash_dir j.Job.id in
              stop_daemon pid;
              daemon := None;
              r
            | st ->
              stop_daemon pid;
              daemon := None;
              Error ("recovered job ended " ^ Job.state_to_string st))
          | l -> Error (Printf.sprintf "expected one recoverable job, found %d" (List.length l)));
      reset =
        (fun () ->
          stop ();
          rmrf crash_dir);
    }
  in
  let rng = Spr_util.Rng.create 23 in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      rmrf ref_dir;
      rmrf crash_dir)
    (fun () ->
      match Spr_check.Service.check_recovery ~attempts:1 ~rng ~max_kill:3 runner with
      | Ok () -> ()
      | Error f -> Alcotest.fail (Spr_check.Service.failure_to_string f))

let () =
  Alcotest.run "spr_serve"
    [
      ( "frame",
        [
          Alcotest.test_case "byte-at-a-time round trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "adversarial bytes never raise" `Quick test_frame_adversarial;
        ] );
      ("protocol", [ Alcotest.test_case "codec round trips, total decode" `Quick test_protocol_roundtrip ]);
      ( "spec",
        [ Alcotest.test_case "one codec, old job.json, decode errors" `Quick test_spec_codec ] );
      ("job-store", [ Alcotest.test_case "durable records, scan diagnostics" `Quick test_job_store ]);
      ( "service",
        [
          Alcotest.test_case "submit streams and completes" `Quick test_submit_completes;
          Alcotest.test_case "garbage frames leave the daemon up" `Quick
            test_garbage_frames_keep_daemon_up;
          Alcotest.test_case "client disconnect does not kill the job" `Quick
            test_client_disconnect_job_survives;
          Alcotest.test_case "worker kill -9 fails only its own job" `Quick
            test_worker_kill_isolated;
          Alcotest.test_case "admission control and cancellation" `Quick test_admission_and_cancel;
          Alcotest.test_case "SIGTERM drain parks, restart resumes" `Quick
            test_drain_parks_and_resumes;
          Alcotest.test_case "daemon kill -9 + restart is bit-identical" `Quick
            test_daemon_kill9_recovery_bit_identical;
        ] );
    ]
