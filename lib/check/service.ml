(* --- adversarial frame bytes --- *)

let junk_byte rng =
  (* Bias toward bytes that stress a parser: digits, braces, newlines,
     NULs, and high bits. *)
  match Spr_util.Rng.int rng 6 with
  | 0 -> Char.chr (Char.code '0' + Spr_util.Rng.int rng 10)
  | 1 -> [| '{'; '}'; '['; ']'; '"'; ':' |].(Spr_util.Rng.int rng 6)
  | 2 -> '\n'
  | 3 -> '\000'
  | 4 -> Char.chr (128 + Spr_util.Rng.int rng 128)
  | _ -> Char.chr (32 + Spr_util.Rng.int rng 95)

let junk rng len = String.init len (fun _ -> junk_byte rng)

let garbage_frames ~rng ~n =
  List.init n (fun _ ->
      match Spr_util.Rng.int rng 7 with
      | 0 ->
        (* Length line that never terminates. *)
        String.init (10 + Spr_util.Rng.int rng 20) (fun _ ->
            Char.chr (Char.code '0' + Spr_util.Rng.int rng 10))
      | 1 ->
        (* Non-numeric length line. *)
        junk rng (1 + Spr_util.Rng.int rng 6) ^ "\n"
      | 2 ->
        (* Absurd announced length. *)
        Printf.sprintf "%d\n" (1_000_000_000 + Spr_util.Rng.int rng 1_000_000_000)
      | 3 ->
        (* Valid header over a non-JSON payload. *)
        let p = junk rng (1 + Spr_util.Rng.int rng 40) in
        Printf.sprintf "%d\n%s" (String.length p) p
      | 4 ->
        (* Valid header, payload cut short (stream then closed). *)
        let p = "{\"req\":\"ping\"}" in
        Printf.sprintf "%d\n%s" (String.length p + 5 + Spr_util.Rng.int rng 100) p
      | 5 ->
        (* Negative length. *)
        Printf.sprintf "-%d\n" (1 + Spr_util.Rng.int rng 1000)
      | _ ->
        (* Pure binary junk. *)
        junk rng (1 + Spr_util.Rng.int rng 64))

(* --- recovery equivalence --- *)

type runner = {
  reference : unit -> (Crash.outcome, string) Stdlib.result;
  interrupted : kill_after_snapshots:int -> (bool, string) Stdlib.result;
  recover : unit -> (Crash.outcome, string) Stdlib.result;
  reset : unit -> unit;
}

type failure = Crash.failure = {
  f_kill_after : int;
  f_shrunk_from : int;
  f_error : string;
}

let failure_to_string f =
  Printf.sprintf "service recovery failed at kill_after_snapshots=%d (shrunk from %d): %s"
    f.f_kill_after f.f_shrunk_from f.f_error

(* One interrupt+recover cycle. [Ok ()]: the property held, or the job
   finished before the kill point (vacuous). [Error]: mismatch or
   harness trouble. *)
let attempt runner ~reference ~kill_after =
  match
    runner.reset ();
    match runner.interrupted ~kill_after_snapshots:kill_after with
    | Error e -> Error ("interrupt: " ^ e)
    | Ok false -> Ok ()
    | Ok true -> (
      match runner.recover () with
      | Error e -> Error ("recover: " ^ e)
      | Ok got -> Crash.compare_outcomes ~reference got)
  with
  | r -> r
  | exception exn -> Error ("runner raised: " ^ Printexc.to_string exn)

let check_recovery ?(attempts = 2) ~rng ~max_kill runner =
  match runner.reference () with
  | Error e ->
    Error { f_kill_after = 0; f_shrunk_from = 0; f_error = "reference: " ^ e }
  | exception exn ->
    Error
      { f_kill_after = 0; f_shrunk_from = 0; f_error = "reference raised: " ^ Printexc.to_string exn }
  | Ok reference ->
    Crash.search ~attempts ~rng ~max_kill (fun kill_after ->
        attempt runner ~reference ~kill_after)
