(* End-to-end tests that drive the spr binary: budget-limited runs exit
   cleanly with a best-so-far layout, and SIGINT leaves behind a
   resumable run directory. The CLI is located relative to this test
   executable (_build/default/test/ -> _build/default/bin/), so the
   tests work under both [dune runtest] and [dune exec]. *)

let spr =
  Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat ".." "bin/spr_cli.exe")

let rec rmrf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rmrf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let has_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
  n = 0 || scan 0

(* Run the CLI to completion, capturing combined stdout/stderr. *)
let run_cli args =
  let cmd = Printf.sprintf "%s %s 2>&1" spr (String.concat " " args) in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let check_exit_zero label = function
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "%s: exit code %d" label n
  | Unix.WSIGNALED n -> Alcotest.failf "%s: killed by signal %d" label n
  | Unix.WSTOPPED n -> Alcotest.failf "%s: stopped by signal %d" label n

(* Rebuild the run's netlist the way [spr route --run-resume] does: from
   the spec the run directory stores (net ids must match the original
   construction). *)
let load_run_dir dir =
  let nl =
    match Result.bind (Spr_serve.Spec.load dir) Spr_serve.Spec.netlist with
    | Ok nl -> nl
    | Error e -> Alcotest.failf "%s: %s" dir e
  in
  match Spr_core.Checkpoint.V2.load_latest nl ~dir with
  | Error e -> Alcotest.failf "no resumable checkpoint in %s: %s" dir e
  | Ok loaded -> (nl, loaded)

(* A tiny wall-clock budget must stop the run early, exit 0, report the
   interruption, and leave a resumable run directory behind. *)
let test_time_budget_interrupts () =
  let dir = "cli-time-budget" in
  rmrf dir;
  let status, out =
    run_cli
      [ "route"; "--circuit"; "s1"; "--effort"; "standard"; "--seed"; "2";
        "--time-budget"; "0.4"; "--run-dir"; dir ]
  in
  check_exit_zero "time-budget run" status;
  Alcotest.(check bool)
    (Printf.sprintf "reports the interruption (got: %s)" out)
    true
    (has_substring ~sub:"interrupted (time budget)" out);
  Alcotest.(check bool) "points at --run-resume" true (has_substring ~sub:"--run-resume" out);
  let _ = load_run_dir dir in
  rmrf dir

(* A move budget behaves the same way, and the run dir then resumes to
   the end. *)
let test_move_budget_then_resume () =
  let dir = "cli-move-budget" in
  rmrf dir;
  let status, out =
    run_cli
      [ "route"; "--circuit"; "s1"; "--effort"; "quick"; "--seed"; "2";
        "--max-moves"; "900"; "--run-dir"; dir ]
  in
  check_exit_zero "move-budget run" status;
  Alcotest.(check bool)
    (Printf.sprintf "reports the interruption (got: %s)" out)
    true
    (has_substring ~sub:"interrupted (move budget)" out);
  (* the pre-grouping spelling is gone: unknown option, nonzero exit *)
  let status, _ = run_cli [ "route"; "--resume"; dir ] in
  (match status with
  | Unix.WEXITED 0 -> Alcotest.fail "removed --resume alias still accepted"
  | _ -> ());
  let status, out = run_cli [ "route"; "--run-resume"; dir ] in
  check_exit_zero "resumed run" status;
  Alcotest.(check bool)
    (Printf.sprintf "resume announces the fleet it continues (got: %s)" out)
    true
    (has_substring ~sub:"resuming flow sa with 1 replica from cli-move-budget" out);
  Alcotest.(check bool)
    (Printf.sprintf "resumed run completes (got: %s)" out)
    true
    (not (has_substring ~sub:"interrupted" out));
  rmrf dir

(* A two-replica portfolio end to end: per-replica reporting, a winner,
   and per-replica snapshot rotations plus a stored run spec that lets
   --run-resume rebuild the fleet. *)
let test_parallel_smoke () =
  let dir = "cli-parallel" in
  rmrf dir;
  let status, out =
    run_cli
      [ "route"; "--circuit"; "s1"; "--effort"; "quick"; "--seed"; "2";
        "--parallel"; "2"; "--exchange"; "best:4"; "--run-dir"; dir ]
  in
  check_exit_zero "parallel run" status;
  Alcotest.(check bool)
    (Printf.sprintf "reports both replicas (got: %s)" out)
    true
    (has_substring ~sub:"replica 0" out && has_substring ~sub:"replica 1" out);
  Alcotest.(check bool)
    (Printf.sprintf "announces a winner (got: %s)" out)
    true
    (has_substring ~sub:"portfolio: replica" out);
  (* fleet runs rotate per-replica snapshots, not serial ones *)
  Alcotest.(check bool) "replica 0 snapshots" true
    (Spr_core.Checkpoint.V2.snapshot_files ~replica:0 dir <> []);
  Alcotest.(check bool) "replica 1 snapshots" true
    (Spr_core.Checkpoint.V2.snapshot_files ~replica:1 dir <> []);
  Alcotest.(check (list (pair int string))) "no serial snapshots" []
    (Spr_core.Checkpoint.V2.snapshot_files dir);
  Alcotest.(check bool) "exchange rounds recorded" true
    (Spr_core.Checkpoint.Round.load_all ~dir <> []);
  (* the spec records the fleet shape for --run-resume *)
  let spec =
    match Spr_serve.Spec.load dir with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "spec: %s" e
  in
  Alcotest.(check int) "spec records parallel" 2 spec.replicas;
  Alcotest.(check string) "spec records exchange" "best:4"
    (Spr_anneal.Portfolio.exchange_to_string spec.exchange);
  Alcotest.(check bool) "spec records scheduler" true (spec.scheduler.kind = `Barrier);
  let status, out = run_cli [ "route"; "--run-resume"; dir ] in
  check_exit_zero "fleet resume" status;
  Alcotest.(check bool)
    (Printf.sprintf "resume rebuilds the fleet (got: %s)" out)
    true
    (has_substring ~sub:"resuming flow sa with 2 replicas from cli-parallel" out);
  rmrf dir

(* The replica table with cpu seconds stripped: what must match between
   a cut-and-resumed fleet and an uninterrupted one. *)
let replica_lines out =
  let strip_cpu l =
    let rec cut i =
      if i + 6 > String.length l then None
      else if String.sub l i 6 = "  cpu=" then Some (String.sub l 0 i)
      else cut (i + 1)
    in
    cut 0
  in
  String.split_on_char '\n' out
  |> List.filter (fun l -> has_substring ~sub:"replica" l)
  |> List.filter_map strip_cpu

(* A racing fleet on a BLIF design, cut by a move budget and resumed
   with a larger one, ends exactly where the uninterrupted run ends:
   the run directory keeps the design and the racing knobs (with the
   default knobs the kill disappears and the replica lines differ). *)
let test_racing_blif_resume () =
  let blif = "cli-race50.blif" and dir = "cli-race-resume" in
  rmrf dir;
  let status, _ = run_cli [ "generate"; "--cells"; "50"; "--seed"; "3"; "-o"; blif ] in
  check_exit_zero "generate" status;
  let race =
    [ "route"; blif; "--tracks"; "16"; "--effort"; "quick"; "--seed"; "7"; "--parallel"; "2";
      "--scheduler"; "racing"; "--race-margin"; "0"; "--race-warmup"; "2"; "--race-every"; "2" ]
  in
  let status, full = run_cli (race @ [ "--max-moves"; "3000" ]) in
  check_exit_zero "uninterrupted run" status;
  Alcotest.(check bool)
    (Printf.sprintf "the uninterrupted fleet kills a replica (got: %s)" full)
    true
    (has_substring ~sub:"racing kills" full);
  let status, _ = run_cli (race @ [ "--max-moves"; "1500"; "--run-dir"; dir ]) in
  check_exit_zero "cut run" status;
  let status, resumed = run_cli [ "route"; "--run-resume"; dir; "--max-moves"; "3000" ] in
  check_exit_zero "resumed run" status;
  Alcotest.(check (list string)) "resumed replica lines == uninterrupted" (replica_lines full)
    (replica_lines resumed);
  Alcotest.(check bool) "replica lines present" true (replica_lines full <> []);
  rmrf dir;
  Sys.remove blif

(* A resume takes this invocation's --stage-budget: the sa stage of a
   long run stops at it. *)
let test_resume_stage_budget () =
  let dir = "cli-stage-budget" in
  rmrf dir;
  let status, _ =
    run_cli
      [ "route"; "--circuit"; "s1"; "--effort"; "standard"; "--seed"; "2"; "--max-moves"; "300";
        "--run-dir"; dir ]
  in
  check_exit_zero "cut run" status;
  let status, out = run_cli [ "route"; "--run-resume"; dir; "--stage-budget"; "sa=0.3" ] in
  check_exit_zero "budgeted resume" status;
  Alcotest.(check bool)
    (Printf.sprintf "the stage budget stops the resumed run (got: %s)" out)
    true
    (has_substring ~sub:"interrupted (time budget)" out);
  rmrf dir

(* A run directory written before run specs existed holds only [meta];
   --run-resume refuses it and names the missing spec.json. *)
let test_resume_without_spec () =
  let dir = "cli-meta-only" in
  rmrf dir;
  Spr_util.Persist.ensure_dir dir;
  Spr_util.Persist.atomic_write (Filename.concat dir "meta") "tracks 28\n";
  let status, out = run_cli [ "route"; "--run-resume"; dir ] in
  (match status with
  | Unix.WEXITED 0 -> Alcotest.fail "a run dir without spec.json resumed"
  | _ -> ());
  Alcotest.(check bool)
    (Printf.sprintf "the error names spec.json (got: %s)" out)
    true
    (has_substring ~sub:"spec.json" out);
  rmrf dir

(* --obs-profile, --selfcheck and the interruption line work for every
   flow, not just a lone sa stage. *)
let test_every_flow_reports () =
  let status, out =
    run_cli
      [ "route"; "--circuit"; "s1"; "--effort"; "quick"; "--seed"; "2"; "--flow"; "ap+sa";
        "--obs-profile"; "--selfcheck"; "--max-moves"; "300" ]
  in
  check_exit_zero "ap+sa run" status;
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "ap+sa prints %S (got: %s)" sub out) true
        (has_substring ~sub out))
    [ "interrupted (move budget)"; "move pipeline:"; "selfcheck: zero audit findings" ];
  let status, out =
    run_cli
      [ "route"; "--circuit"; "s1"; "--effort"; "quick"; "--seed"; "2"; "--flow"; "seq";
        "--selfcheck" ]
  in
  check_exit_zero "seq run" status;
  Alcotest.(check bool)
    (Printf.sprintf "seq audits its final layout (got: %s)" out)
    true
    (has_substring ~sub:"selfcheck: zero audit findings" out)

(* --trace/--report leave artifacts behind that spr report validates
   against the trace schema and re-renders as the dynamics table. *)
let test_trace_report_artifacts () =
  let trace = Filename.temp_file "spr_cli_trace" ".jsonl" in
  let report = Filename.temp_file "spr_cli_report" ".json" in
  let status, out =
    run_cli
      [ "route"; "--circuit"; "s1"; "--effort"; "quick"; "--seed"; "2";
        "--trace"; trace; "--report"; report ]
  in
  check_exit_zero "traced run" status;
  Alcotest.(check bool)
    (Printf.sprintf "announces the artifacts (got: %s)" out)
    true
    (has_substring ~sub:"trace written to" out && has_substring ~sub:"report written to" out);
  let status, out = run_cli [ "report"; trace; "--check" ] in
  check_exit_zero "spr report --check" status;
  Alcotest.(check bool)
    (Printf.sprintf "schema-valid trace (got: %s)" out)
    true
    (has_substring ~sub:"valid spr-trace-1 trace" out);
  let status, out = run_cli [ "report"; trace ] in
  check_exit_zero "spr report" status;
  Alcotest.(check bool)
    (Printf.sprintf "re-renders the dynamics table (got: %s)" out)
    true
    (has_substring ~sub:"%G-unrt" out);
  (match Spr_util.Persist.read_file report with
  | Error e -> Alcotest.failf "report.json unreadable: %s" e
  | Ok text -> (
    match Spr_obs.Json.parse text with
    | Error e -> Alcotest.failf "report.json does not parse: %s" e
    | Ok j -> (
      match Spr_obs.Report.of_json j with
      | Error e -> Alcotest.failf "report.json does not decode: %s" e
      | Ok _ -> ())));
  Sys.remove trace;
  Sys.remove report

let test_bad_parallel_flags () =
  let status, _ = run_cli [ "route"; "--circuit"; "s1"; "--parallel"; "0" ] in
  (match status with
  | Unix.WEXITED 0 -> Alcotest.fail "--parallel 0 accepted"
  | _ -> ());
  let status, _ =
    run_cli [ "route"; "--circuit"; "s1"; "--parallel"; "2"; "--exchange"; "best:0" ]
  in
  (match status with
  | Unix.WEXITED 0 -> Alcotest.fail "--exchange best:0 accepted"
  | _ -> ());
  (* the free-running racing spelling was deleted *)
  let removed = String.concat ":" [ "racing"; "free" ] in
  let status, out = run_cli [ "route"; "--circuit"; "s1"; "--scheduler"; removed ] in
  (match status with
  | Unix.WEXITED 0 -> Alcotest.failf "--scheduler %s accepted" removed
  | _ -> ());
  Alcotest.(check bool)
    (Printf.sprintf "the error names the valid schedulers (got: %s)" out)
    true
    (has_substring ~sub:"want barrier" out && has_substring ~sub:"racing)" out)

(* SIGINT mid-anneal: the handler finishes the in-flight move, writes a
   final checkpoint, and the process exits 0 with the best-so-far
   layout instead of dying. *)
let test_sigint_writes_resumable_checkpoint () =
  let dir = "cli-sigint" in
  rmrf dir;
  let out_path = Filename.temp_file "spr_cli_sigint" ".out" in
  let out_fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process spr
      [| spr; "route"; "--circuit"; "s1"; "--effort"; "standard"; "--seed"; "2";
         "--run-dir"; dir |]
      Unix.stdin out_fd out_fd
  in
  Unix.close out_fd;
  (* s1 at standard effort anneals for >10s; by 2s the handlers are
     installed and the run is mid-schedule. *)
  Unix.sleepf 2.0;
  Unix.kill pid Sys.sigint;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "CLI did not exit within 60s of SIGINT"
      end
      else begin
        Unix.sleepf 0.2;
        wait ()
      end
    | _, status -> status
  in
  let status = wait () in
  let out =
    let ic = open_in_bin out_path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Sys.remove out_path;
    s
  in
  check_exit_zero "interrupted CLI" status;
  Alcotest.(check bool)
    (Printf.sprintf "reports the interruption (got: %s)" out)
    true
    (has_substring ~sub:"interrupted (interrupt)" out);
  let _, loaded = load_run_dir dir in
  Alcotest.(check bool) "final checkpoint present" true (loaded.Spr_core.Checkpoint.V2.seq >= 1);
  rmrf dir

let () =
  Alcotest.run "spr_cli"
    [
      ( "budgets",
        [
          Alcotest.test_case "time budget exits 0 and reports interrupted" `Slow
            test_time_budget_interrupts;
          Alcotest.test_case "move budget interrupts, then resumes to completion" `Slow
            test_move_budget_then_resume;
          Alcotest.test_case "a resume obeys its --stage-budget" `Slow test_resume_stage_budget;
          Alcotest.test_case "a run dir without spec.json is refused" `Quick
            test_resume_without_spec;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "two-replica portfolio end to end" `Slow test_parallel_smoke;
          Alcotest.test_case "bad flags rejected" `Quick test_bad_parallel_flags;
          Alcotest.test_case "racing knobs and a BLIF design survive --run-resume" `Slow
            test_racing_blif_resume;
        ] );
      ( "obs",
        [
          Alcotest.test_case "--obs-profile and --selfcheck cover every flow" `Slow
            test_every_flow_reports;
          Alcotest.test_case "--trace/--report artifacts round-trip through spr report" `Slow
            test_trace_report_artifacts;
        ] );
      ( "signals",
        [
          Alcotest.test_case "SIGINT writes a final resumable checkpoint" `Slow
            test_sigint_writes_resumable_checkpoint;
        ] );
    ]
