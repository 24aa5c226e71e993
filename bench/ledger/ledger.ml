(* The performance ledger: end-to-end and per-layer numbers for [spr
   route] on four workloads, every run's outputs checked.

     ledger.exe run --seed N [--reps R] [--out FILE]...
     ledger.exe --workload NAME --seed N --seconds S --trace 0|1
     ledger.exe compare PARENT.json CHANGE.json

   [run] with several --out files takes that many sets, interleaved rep
   by rep. Common options: --spr PATH (the CLI under test, default
   _build/default/bin/spr_cli.exe) and --work DIR (default _ledger; the
   ledger works in a fresh subdirectory of it and removes only that).
   See README.md beside this file. *)

open Spr_ledger
module Json = Spr_obs.Json

let usage =
  "usage: ledger.exe run --seed N [--reps R] [--out FILE]...\n\
  \       ledger.exe --workload NAME --seed N --seconds S --trace 0|1\n\
  \       ledger.exe compare PARENT.json CHANGE.json\n\
   options: --spr PATH  --work DIR"

exception Usage of string

let is_flag s = String.length s > 2 && String.sub s 0 2 = "--"

let rec parse opts pos = function
  | [] -> (opts, List.rev pos)
  | key :: value :: rest when is_flag key ->
    parse ((String.sub key 2 (String.length key - 2), value) :: opts) pos rest
  | [ key ] when is_flag key -> raise (Usage (key ^ " needs a value"))
  | arg :: rest -> parse opts (arg :: pos) rest

let load_json path =
  match Spr_util.Persist.read_file path with
  | Error e -> raise (Usage e)
  | Ok text -> ( match Json.parse text with Ok j -> j | Error e -> raise (Usage (path ^ ": " ^ e)))

let main argv =
  let opts, pos = parse [] [] argv in
  let opt k = List.assoc_opt k opts in
  let int k =
    match opt k with
    | None -> raise (Usage ("missing --" ^ k))
    | Some v -> (
      match int_of_string_opt v with Some n -> n | None -> raise (Usage ("--" ^ k ^ " " ^ v)))
  in
  let with_env f =
    let spr = Option.value (opt "spr") ~default:"_build/default/bin/spr_cli.exe" in
    if not (Sys.file_exists spr) then raise (Usage ("no spr executable at " ^ spr));
    Proc.with_scratch
      (Option.value (opt "work") ~default:"_ledger")
      (fun work -> f { Workload.spr; work })
  in
  match pos with
  | [ "run" ] ->
    (* With 3 reps the quartiles are the extremes, and one rep slowed by
       the host leaves a row unresolved. *)
    let reps = if opt "reps" = None then 7 else int "reps" in
    if reps < 1 then raise (Usage "--reps must be at least 1");
    let seed = int "seed" in
    let outs = List.filter_map (fun (k, v) -> if k = "out" then Some v else None) (List.rev opts) in
    let sets = max 1 (List.length outs) in
    let ledgers = with_env (fun env -> Measure.run_all env Workload.all ~seed ~reps ~sets) in
    if outs <> [] then
      List.iter2
        (fun path (json, _) ->
          Spr_util.Persist.atomic_write path (Json.to_string ~indent:true json ^ "\n"))
        outs ledgers;
    if List.for_all (fun (_, failed) -> failed = 0) ledgers then 0 else 1
  | [ "compare"; parent; change ] -> (
    match Measure.compare ~parent:(load_json parent) ~change:(load_json change) with
    | Error e -> raise (Usage e)
    | Ok regressed -> if regressed then 1 else 0)
  | [] -> (
    let name = Option.value (opt "workload") ~default:"" in
    match Workload.find name with
    | None -> raise (Usage ("unknown workload " ^ name))
    | Some w ->
      let seed = int "seed" and seconds = float_of_int (int "seconds") in
      let trace = int "trace" <> 0 in
      let result = with_env (fun env -> Measure.one_workload env w ~seed ~seconds ~trace) in
      print_endline (Json.to_string result);
      if Json.member "correct" result = Some (Json.Bool true) then 0 else 1)
  | _ -> raise (Usage "unknown command")

let () =
  Proc.start ();
  exit
    (try main (List.tl (Array.to_list Sys.argv))
     with Usage msg ->
       prerr_endline ("ledger: " ^ msg);
       prerr_endline usage;
       2)
