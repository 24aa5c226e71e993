module J = Spr_obs.Json

type config = {
  state_dir : string;
  socket_path : string option;
  max_workers : int;
  max_queue : int;
  default_time_budget : float option;
  kill_grace : float;
  drain_grace : float;
  timeout_slack : float;
}

let default_config ~state_dir =
  {
    state_dir;
    socket_path = None;
    max_workers = 2;
    max_queue = 16;
    default_time_budget = None;
    kill_grace = 5.0;
    drain_grace = 10.0;
    timeout_slack = 5.0;
  }

let socket_path cfg =
  match cfg.socket_path with
  | Some p -> p
  | None -> Filename.concat cfg.state_dir "serve.sock"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    Spr_util.Persist.ensure_dir dir
  end

(* How much unflushed output a slow subscriber may accumulate before
   its event frames start being dropped (terminal frames are always
   queued — job state is durable regardless). *)
let max_client_backlog = 1 lsl 20

type client = {
  cfd : Unix.file_descr;
  cdec : Frame.decoder;
  mutable cpending : string;  (* bytes accepted but not yet written *)
  mutable csub : string option;  (* job id this connection streams *)
  mutable cclose_when_flushed : bool;
  mutable cdead : bool;
}

type intent = I_run | I_cancel | I_drain | I_timeout

type runner = {
  r_job : Job.t;
  r_pid : int;
  mutable r_pipe : Unix.file_descr option;
  r_dec : Frame.decoder;
  mutable r_result : (string * J.t option) option;
  mutable r_error : string option;
  r_started : float;
  r_deadline : float option;
  mutable r_intent : intent;
  mutable r_termed_at : float option;
}

type state = {
  cfg : config;
  jobs : (string, Job.t) Hashtbl.t;
  queue : string Queue.t;
  running : (int, runner) Hashtbl.t;
  mutable clients : client list;
  mutable listen_fd : Unix.file_descr option;
  mutable draining : bool;
  mutable drain_started : float;
  mutable avg_job_s : float;  (* rolling mean of completed-job wall seconds *)
  mutable finished_jobs : int;
}

let now () = Unix.gettimeofday ()

let logf fmt = Printf.ksprintf (fun s -> Printf.eprintf "[spr-serve] %s\n%!" s) fmt

(* --- client output --- *)

let flush_client c =
  let n = String.length c.cpending in
  if n > 0 && not c.cdead then begin
    match Unix.write_substring c.cfd c.cpending 0 n with
    | w -> if w > 0 then c.cpending <- String.sub c.cpending w (n - w)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> c.cdead <- true
  end

let send c resp =
  if not c.cdead then begin
    let droppable = match resp with Protocol.Event _ -> true | _ -> false in
    if not (droppable && String.length c.cpending > max_client_backlog) then
      c.cpending <- c.cpending ^ Frame.encode (Protocol.response_to_json resp);
    flush_client c
  end

let send_final c resp =
  send c resp;
  c.cclose_when_flushed <- true

let subscriber st id = List.find_opt (fun c -> c.csub = Some id && not c.cdead) st.clients

let drop_client c =
  if not c.cdead then begin
    c.cdead <- true;
    try Unix.close c.cfd with Unix.Unix_error _ -> ()
  end

let prune_clients st =
  List.iter
    (fun c -> if c.cclose_when_flushed && c.cpending = "" && c.csub = None then drop_client c)
    st.clients;
  st.clients <- List.filter (fun c -> not c.cdead) st.clients

(* --- durable job transitions --- *)

let transition st (j : Job.t) state =
  j.Job.state <- state;
  j.Job.updated_at <- now ();
  Job.save ~state_dir:st.cfg.state_dir j

let notify_terminal st (j : Job.t) resp =
  match subscriber st j.Job.id with
  | None -> ()
  | Some c ->
    c.csub <- None;
    send_final c resp

(* --- starting workers --- *)

let start_job st (j : Job.t) =
  let state_dir = st.cfg.state_dir in
  mkdir_p (Job.dir ~state_dir j.Job.id);
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (* Child: drop every daemon fd so a dead daemon cannot keep the
       socket alive through its workers, then become the worker. *)
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      (r
      :: (match st.listen_fd with Some fd -> [ fd ] | None -> [])
      @ List.map (fun c -> c.cfd) st.clients
      @ Hashtbl.fold
          (fun _ rn acc -> match rn.r_pipe with Some fd -> fd :: acc | None -> acc)
          st.running []);
    (try Worker.main ~state_dir ~job:j ~pipe:w with _ -> exit 125)
  | pid ->
    Unix.close w;
    Unix.set_nonblock r;
    transition st j (Job.Running pid);
    let deadline =
      Option.map (fun b -> now () +. b +. st.cfg.timeout_slack) j.Job.spec.Spec.time_budget
    in
    Hashtbl.replace st.running pid
      {
        r_job = j;
        r_pid = pid;
        r_pipe = Some r;
        r_dec = Frame.decoder ();
        r_result = None;
        r_error = None;
        r_started = now ();
        r_deadline = deadline;
        r_intent = I_run;
        r_termed_at = None;
      };
    logf "%s: started worker pid %d" j.Job.id pid

let start_ready st =
  while
    (not st.draining)
    && Hashtbl.length st.running < st.cfg.max_workers
    && not (Queue.is_empty st.queue)
  do
    let id = Queue.pop st.queue in
    match Hashtbl.find_opt st.jobs id with
    | Some j when j.Job.state = Job.Queued -> start_job st j
    | Some _ | None -> ()  (* cancelled while queued *)
  done

(* --- worker pipe --- *)

let forward_event st rn ev =
  match subscriber st rn.r_job.Job.id with
  | Some c -> send c (Protocol.Event ev)
  | None -> ()

let pump_worker_frames st rn =
  let continue = ref true in
  while !continue do
    match Frame.next rn.r_dec with
    | `Need_more -> continue := false
    | `Corrupt msg ->
      if rn.r_error = None then rn.r_error <- Some ("worker stream corrupt: " ^ msg);
      continue := false
    | `Frame json -> (
      match Protocol.worker_of_json json with
      | Error e -> if rn.r_error = None then rn.r_error <- Some ("worker frame: " ^ e)
      | Ok (Protocol.W_event ev) -> forward_event st rn ev
      | Ok (Protocol.W_result { status; report }) -> rn.r_result <- Some (status, report)
      | Ok (Protocol.W_error msg) -> rn.r_error <- Some msg)
  done

let read_worker_pipe st rn =
  match rn.r_pipe with
  | None -> ()
  | Some fd -> (
    let buf = Bytes.create 65536 in
    let rec go () =
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 ->
        rn.r_pipe <- None;
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | n ->
        Frame.feed rn.r_dec (Bytes.sub_string buf 0 n);
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) ->
        rn.r_pipe <- None;
        (try Unix.close fd with Unix.Unix_error _ -> ())
    in
    go ();
    pump_worker_frames st rn)

(* --- finishing jobs --- *)

(* [Unix.WSIGNALED] carries OCaml's Sys numbering (negative); name the
   common ones rather than leak that. *)
let signal_name n =
  if n = Sys.sigkill then "SIGKILL"
  else if n = Sys.sigterm then "SIGTERM"
  else if n = Sys.sigint then "SIGINT"
  else if n = Sys.sigsegv then "SIGSEGV"
  else if n = Sys.sigabrt then "SIGABRT"
  else if n = Sys.sigbus then "SIGBUS"
  else "signal " ^ string_of_int n

let describe_exit = function
  | Unix.WEXITED n -> Printf.sprintf "worker exited %d without a result" n
  | Unix.WSIGNALED n -> Printf.sprintf "worker killed by %s" (signal_name n)
  | Unix.WSTOPPED n -> Printf.sprintf "worker stopped by %s" (signal_name n)

let is_interrupted status =
  String.length status >= 11 && String.sub status 0 11 = "interrupted"

let finalize st rn exit_status =
  read_worker_pipe st rn;
  (match rn.r_pipe with
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    rn.r_pipe <- None
  | None -> ());
  let j = rn.r_job in
  let id = j.Job.id in
  let result =
    match rn.r_result with
    | Some r -> Some r
    | None -> (
      (* The daemon may have died and restarted between the worker's
         durable outcome write and its result frame — or the frame may
         have been lost to a pipe failure. The file is authoritative. *)
      match Worker.read_outcome (Job.outcome_file ~state_dir:st.cfg.state_dir j) with
      | Ok (`Ok (status, report)) -> Some (status, report)
      | Ok (`Error e) ->
        if rn.r_error = None then rn.r_error <- Some e;
        None
      | Error _ -> None)
  in
  (match result with
  | Some (status, report) -> (
    match rn.r_intent with
    | I_cancel when is_interrupted status ->
      transition st j Job.Cancelled;
      notify_terminal st j (Protocol.Job_cancelled id)
    | I_drain when is_interrupted status ->
      transition st j Job.Parked;
      notify_terminal st j
        (Protocol.Job_parked { id; message = "daemon draining; job resumes on restart" })
    | I_run | I_cancel | I_drain | I_timeout ->
      transition st j (Job.Done status);
      st.avg_job_s <-
        (let dur = now () -. rn.r_started in
         if st.finished_jobs = 0 then dur else (0.8 *. st.avg_job_s) +. (0.2 *. dur));
      st.finished_jobs <- st.finished_jobs + 1;
      notify_terminal st j (Protocol.Job_done { id; status; report }))
  | None -> (
    match rn.r_intent with
    | I_cancel ->
      transition st j Job.Cancelled;
      notify_terminal st j (Protocol.Job_cancelled id)
    | I_drain ->
      transition st j Job.Parked;
      notify_terminal st j
        (Protocol.Job_parked { id; message = "daemon draining; job resumes on restart" })
    | I_run | I_timeout ->
      let error = match rn.r_error with Some e -> e | None -> describe_exit exit_status in
      transition st j (Job.Failed error);
      notify_terminal st j (Protocol.Job_failed { id; error })));
  logf "%s: %s" id (Job.state_to_string j.Job.state);
  Hashtbl.remove st.running rn.r_pid

let reap st =
  let finished =
    Hashtbl.fold
      (fun pid rn acc ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> acc
        | _, status -> (rn, status) :: acc
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> (rn, Unix.WEXITED 0) :: acc)
      st.running []
  in
  List.iter (fun (rn, status) -> finalize st rn status) finished

let signal_worker rn signal =
  try Unix.kill rn.r_pid signal with Unix.Unix_error _ -> ()

let enforce_deadlines st =
  let t = now () in
  Hashtbl.iter
    (fun _ rn ->
      (match rn.r_deadline with
      | Some dl when t > dl && rn.r_intent = I_run ->
        logf "%s: past hard deadline, asking worker %d to stop" rn.r_job.Job.id rn.r_pid;
        rn.r_intent <- I_timeout;
        rn.r_termed_at <- Some t;
        signal_worker rn Sys.sigterm
      | _ -> ());
      match rn.r_termed_at with
      | Some at when t -. at > st.cfg.kill_grace ->
        logf "%s: worker %d ignored SIGTERM, killing" rn.r_job.Job.id rn.r_pid;
        rn.r_termed_at <- Some infinity;
        signal_worker rn Sys.sigkill
      | _ -> ())
    st.running

(* --- requests --- *)

let job_rows st =
  Hashtbl.fold (fun _ j acc -> j :: acc) st.jobs []
  |> List.sort (fun (a : Job.t) b -> compare a.Job.id b.Job.id)
  |> List.map (fun (j : Job.t) ->
         {
           Protocol.row_id = j.Job.id;
           row_label = j.Job.spec.Spec.label;
           row_state = Job.state_to_string j.Job.state;
           row_submitted_at = j.Job.submitted_at;
           row_updated_at = j.Job.updated_at;
           row_pid = (match j.Job.state with Job.Running pid -> Some pid | _ -> None);
         })

let suggested_backoff st =
  let avg = if st.finished_jobs = 0 then 30.0 else st.avg_job_s in
  Float.max 1.0 (float_of_int (Queue.length st.queue + 1) *. avg /. float_of_int st.cfg.max_workers)

let handle_submit st c spec =
  if st.draining then send_final c (Protocol.Rejected Protocol.Draining)
  else
    match Spec.validate spec with
    | Error e -> send_final c (Protocol.Rejected (Protocol.Invalid e))
    | Ok () ->
      if Queue.length st.queue >= st.cfg.max_queue then
        send_final c
          (Protocol.Rejected
             (Protocol.Overloaded
                { queued = Queue.length st.queue; backoff_s = suggested_backoff st }))
      else begin
        let spec =
          match spec.Spec.time_budget, st.cfg.default_time_budget with
          | None, Some b -> { spec with Spec.time_budget = Some b }
          | _ -> spec
        in
        let j = Job.create ~state_dir:st.cfg.state_dir ~spec ~now:(now ()) in
        Hashtbl.replace st.jobs j.Job.id j;
        Queue.push j.Job.id st.queue;
        c.csub <- Some j.Job.id;
        send c (Protocol.Accepted j.Job.id);
        logf "%s: accepted (%s)" j.Job.id spec.Spec.label
      end

let handle_cancel st c id =
  match Hashtbl.find_opt st.jobs id with
  | None -> send_final c (Protocol.Error ("no such job: " ^ id))
  | Some j -> (
    match j.Job.state with
    | Job.Queued ->
      transition st j Job.Cancelled;
      notify_terminal st j (Protocol.Job_cancelled id);
      send_final c (Protocol.Job_cancelled id)
    | Job.Running pid -> (
      match Hashtbl.find_opt st.running pid with
      | Some rn ->
        rn.r_intent <- I_cancel;
        rn.r_termed_at <- Some (now ());
        signal_worker rn Sys.sigterm;
        send_final c (Protocol.Job_cancelled id)
      | None -> send_final c (Protocol.Error ("no live worker for " ^ id)))
    | Job.Parked | Job.Done _ | Job.Failed _ | Job.Cancelled ->
      send_final c (Protocol.Error (id ^ " is already " ^ Job.state_to_string j.Job.state)))

let handle_request st c = function
  | Protocol.Ping -> send_final c Protocol.Pong
  | Protocol.Jobs -> send_final c (Protocol.Jobs_list (job_rows st))
  | Protocol.Cancel id -> handle_cancel st c id
  | Protocol.Submit spec -> handle_submit st c spec

let read_client st c =
  let buf = Bytes.create 65536 in
  let rec fill () =
    match Unix.read c.cfd buf 0 (Bytes.length buf) with
    | 0 -> drop_client c  (* disconnect; a subscribed job keeps running *)
    | n ->
      Frame.feed c.cdec (Bytes.sub_string buf 0 n);
      fill ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
    | exception Unix.Unix_error (_, _, _) -> drop_client c
  in
  fill ();
  let continue = ref true in
  while !continue && not c.cdead do
    match Frame.next c.cdec with
    | `Need_more -> continue := false
    | `Corrupt msg ->
      (* Adversarial bytes cost the sender its connection, nothing
         more: reply with a structured error and hang up. *)
      send_final c (Protocol.Error ("corrupt frame: " ^ msg));
      c.csub <- None;
      continue := false
    | `Frame json -> (
      match Protocol.request_of_json json with
      | Error e -> send_final c (Protocol.Error ("bad request: " ^ e))
      | Ok req -> handle_request st c req)
  done

let accept_clients st =
  match st.listen_fd with
  | None -> ()
  | Some lfd -> (
    let rec go () =
      match Unix.accept lfd with
      | fd, _ ->
        Unix.set_nonblock fd;
        st.clients <-
          {
            cfd = fd;
            cdec = Frame.decoder ();
            cpending = "";
            csub = None;
            cclose_when_flushed = false;
            cdead = false;
          }
          :: st.clients;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> ()
    in
    go ())

(* --- recovery --- *)

let recover st =
  let state_dir = st.cfg.state_dir in
  let jobs, diags = Job.scan ~state_dir in
  List.iter (fun d -> logf "recovery: skipping %s" d) diags;
  List.iter
    (fun (j : Job.t) ->
      Hashtbl.replace st.jobs j.Job.id j;
      match j.Job.state with
      | Job.Queued -> Queue.push j.Job.id st.queue
      | Job.Parked ->
        transition st j Job.Queued;
        Queue.push j.Job.id st.queue
      | Job.Running pid -> (
        let outcome () = Worker.read_outcome (Job.outcome_file ~state_dir j) in
        let apply = function
          | `Ok (status, _) -> transition st j (Job.Done status)
          | `Error e -> transition st j (Job.Failed e)
        in
        match outcome () with
        | Ok o ->
          (* The orphaned worker finished while no daemon was alive. *)
          apply o
        | Error _ -> (
          (* Fence: if the worker from the previous daemon still runs,
             kill it before resuming the job, so two workers never
             share a run directory. *)
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          match outcome () with
          | Ok o -> apply o
          | Error _ ->
            logf "recovery: %s interrupted (was pid %d), re-queued to resume" j.Job.id pid;
            transition st j Job.Queued;
            Queue.push j.Job.id st.queue))
      | Job.Done _ | Job.Failed _ | Job.Cancelled -> ())
    jobs

(* --- drain --- *)

let begin_drain st =
  if not st.draining then begin
    st.draining <- true;
    st.drain_started <- now ();
    logf "draining: %d running, %d queued" (Hashtbl.length st.running) (Queue.length st.queue);
    (match st.listen_fd with
    | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      st.listen_fd <- None
    | None -> ());
    Hashtbl.iter
      (fun _ rn ->
        if rn.r_intent = I_run || rn.r_intent = I_timeout then rn.r_intent <- I_drain;
        signal_worker rn Sys.sigterm)
      st.running
  end

let drain_enforce st =
  if st.draining && now () -. st.drain_started > st.cfg.drain_grace then
    Hashtbl.iter (fun _ rn -> signal_worker rn Sys.sigkill) st.running

(* --- main loop --- *)

let bind_socket path =
  if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  fd

let run cfg =
  mkdir_p cfg.state_dir;
  mkdir_p (Job.jobs_root cfg.state_dir);
  let st =
    {
      cfg;
      jobs = Hashtbl.create 16;
      queue = Queue.create ();
      running = Hashtbl.create 8;
      clients = [];
      listen_fd = None;
      draining = false;
      drain_started = 0.0;
      avg_job_s = 0.0;
      finished_jobs = 0;
    }
  in
  recover st;
  let sock = socket_path cfg in
  st.listen_fd <- Some (bind_socket sock);
  let drain_req = ref false in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain_req := true)) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> drain_req := true)) in
  logf "listening on %s (state %s)" sock cfg.state_dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe prev_pipe;
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      (match st.listen_fd with
      | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      (try Unix.unlink sock with Unix.Unix_error _ | Sys_error _ -> ());
      List.iter drop_client st.clients)
    (fun () ->
      let finished () = st.draining && Hashtbl.length st.running = 0 in
      while not (finished ()) do
        if !drain_req then begin_drain st;
        let reads =
          (match st.listen_fd with Some fd -> [ fd ] | None -> [])
          @ List.filter_map (fun c -> if c.cdead then None else Some c.cfd) st.clients
          @ Hashtbl.fold (fun _ rn acc -> match rn.r_pipe with Some fd -> fd :: acc | None -> acc)
              st.running []
        in
        let writes =
          List.filter_map
            (fun c -> if (not c.cdead) && c.cpending <> "" then Some c.cfd else None)
            st.clients
        in
        (match Unix.select reads writes [] 0.25 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, writable, _ ->
          (match st.listen_fd with
          | Some lfd when List.memq lfd readable -> accept_clients st
          | _ -> ());
          List.iter
            (fun c -> if (not c.cdead) && List.memq c.cfd readable then read_client st c)
            st.clients;
          List.iter
            (fun c -> if (not c.cdead) && List.memq c.cfd writable then flush_client c)
            st.clients;
          Hashtbl.iter
            (fun _ rn ->
              match rn.r_pipe with
              | Some fd when List.memq fd readable -> read_worker_pipe st rn
              | _ -> ())
            st.running);
        reap st;
        enforce_deadlines st;
        drain_enforce st;
        start_ready st;
        prune_clients st
      done;
      logf "drained, exiting")
