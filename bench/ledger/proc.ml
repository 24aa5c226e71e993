(* Child processes measured the way a user's shell would see them. *)

external monotonic_ns : unit -> int = "ledger_monotonic_ns" [@@noalloc]

external spawner_start : unit -> unit = "ledger_spawner_start"

external spawner_stop : unit -> unit = "ledger_spawner_stop"

external spawn : string -> string array -> int * int * float * float * int = "ledger_spawn"

let now () = float_of_int (monotonic_ns ()) *. 1e-9

(* Fork the process that spawns every child (see rusage_stubs.c). Call
   it first thing, while this process is small: its size is the floor
   of every child's peak RSS. Idempotent; the spawner is stopped and
   reaped at exit. *)
let start =
  let started = ref false in
  fun () ->
    if not !started then begin
      started := true;
      spawner_start ();
      at_exit spawner_stop
    end

type usage = {
  exit_code : int;  (** -1 when killed by a signal *)
  signal : int;
  wall_s : float;  (** fork to reap *)
  cpu_s : float;  (** the child's own user + system time *)
  maxrss_kb : int;
}

(* Run [prog args] to completion with stdout and stderr in [log]. One
   child at a time: the ledger is a closed loop. *)
let run ~prog ~args ~log =
  start ();
  let exit_code, signal, wall_s, cpu_s, maxrss_kb = spawn log (Array.of_list (prog :: args)) in
  { exit_code; signal; wall_s; cpu_s; maxrss_kb }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec ensure_dir path =
  if not (Sys.file_exists path) then begin
    ensure_dir (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* [f dir] with [dir] a fresh directory [root/ledger-PID] that is
   removed afterwards, together with [root] if this call created it and
   it is then empty. Nothing else under [root] is touched. *)
let with_scratch root f =
  let created = not (Sys.file_exists root) in
  let dir = Filename.concat root (Printf.sprintf "ledger-%d" (Unix.getpid ())) in
  remove_tree dir;
  ensure_dir dir;
  Fun.protect
    ~finally:(fun () ->
      remove_tree dir;
      if created then try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* (files, bytes) of the regular files under [dir]. *)
let rec tree_size dir =
  if not (Sys.file_exists dir) then (0, 0)
  else
    Array.fold_left
      (fun (n, b) f ->
        let path = Filename.concat dir f in
        match Unix.lstat path with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> (n + 1, b + st_size)
        | { Unix.st_kind = Unix.S_DIR; _ } ->
          let n', b' = tree_size path in
          (n + n', b + b')
        | _ -> (n, b))
      (0, 0) (Sys.readdir dir)
