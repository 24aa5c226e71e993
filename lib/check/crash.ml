type outcome = {
  o_layout : string;
  o_g : int;
  o_d : int;
  o_critical_delay : float;
}

let compare_outcomes ~reference got =
  if reference.o_g <> got.o_g then
    Error (Printf.sprintf "G: reference %d, resumed %d" reference.o_g got.o_g)
  else if reference.o_d <> got.o_d then
    Error (Printf.sprintf "D: reference %d, resumed %d" reference.o_d got.o_d)
  else if reference.o_critical_delay <> got.o_critical_delay then
    Error
      (Printf.sprintf "critical delay: reference %.17g, resumed %.17g"
         reference.o_critical_delay got.o_critical_delay)
  else if not (String.equal reference.o_layout got.o_layout) then
    Error "layouts differ (identical cost components)"
  else Ok ()

type runner = {
  reference : unit -> outcome;
  crashed : kill_after:int -> bool;
  resume : unit -> (outcome, string) Stdlib.result;
  reset : unit -> unit;
}

type failure = {
  f_kill_after : int;
  f_shrunk_from : int;
  f_error : string;
}

let failure_to_string f =
  Printf.sprintf "crash-equivalence failed at kill_after=%d (shrunk from %d): %s" f.f_kill_after
    f.f_shrunk_from f.f_error

(* One full crash+resume cycle at a given kill index. [Ok true] means
   the property held (or the kill point was never reached), [Error]
   carries the mismatch. Closure exceptions are failures, not crashes of
   the harness. *)
let attempt runner ~kill_after =
  match
    runner.reset ();
    if runner.crashed ~kill_after then begin
      match runner.resume () with
      | Error e -> Error ("resume: " ^ e)
      | Ok got -> (
        match compare_outcomes ~reference:(runner.reference ()) got with
        | Ok () -> Ok ()
        | Error e -> Error e)
    end
    else Ok ()
  with
  | r -> r
  | exception exn -> Error ("exception: " ^ Printexc.to_string exn)

(* Shrink a failing kill point toward 1: at each step try the classic
   integer-shrink candidates (1, half, predecessor) and keep the
   smallest one that still fails. Every candidate costs a full
   kill+resume cycle, so the candidate list is deliberately short. *)
let shrink attempt ~kill_after ~error =
  let rec go k err =
    let candidates =
      List.sort_uniq compare [ 1; k / 2; k - 1 ] |> List.filter (fun c -> c >= 1 && c < k)
    in
    let rec first_failing = function
      | [] -> None
      | c :: rest -> (
        match attempt c with
        | Ok () -> first_failing rest
        | Error e -> Some (c, e))
    in
    match first_failing candidates with
    | Some (c, e) -> go c e
    | None -> (k, err)
  in
  go kill_after error

let search ~attempts ~rng ~max_kill attempt =
  let max_kill = max 1 max_kill in
  let rec loop i =
    if i >= attempts then Ok ()
    else begin
      let kill_after = 1 + Spr_util.Rng.int rng max_kill in
      match attempt kill_after with
      | Ok () -> loop (i + 1)
      | Error error ->
        let k, e = shrink attempt ~kill_after ~error in
        Error { f_kill_after = k; f_shrunk_from = kill_after; f_error = e }
    end
  in
  loop 0

let check_equivalence ?(attempts = 3) ~rng ~max_kill runner =
  search ~attempts ~rng ~max_kill (fun kill_after -> attempt runner ~kill_after)

(* --- corruption injectors --- *)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

let truncate_file path ~keep =
  let text = read_all path in
  let keep = max 0 (min keep (String.length text)) in
  write_all path (String.sub text 0 keep)

let flip_byte path ~at =
  let text = read_all path in
  if String.length text = 0 then ()
  else begin
    let at = max 0 (min at (String.length text - 1)) in
    let b = Bytes.of_string text in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xFF));
    write_all path (Bytes.to_string b)
  end
