(* Input mutations for fuzzing the loaders of external bytes: every
   truncation, every single-byte flip, and hostile values spliced over
   each value field. A loader under test must answer every mutant with
   [Error] or a valid value, and never raise. *)

let splice text ~at ~len s =
  String.sub text 0 at ^ s ^ String.sub text (at + len) (String.length text - at - len)

(* The byte's complement and four characters that break tokens. *)
let flip_chars c = [ Char.chr (Char.code c lxor 0xff); '-'; '0'; ' '; '\n' ]

let flip text i c = String.mapi (fun j x -> if j = i then c else x) text

(* Negative, zero, non-finite, null, wrongly typed, oversized and
   string values. *)
let json_values = [ "-1"; "0"; "1e999"; "null"; "[]"; "{}"; "99999999999999999999"; {|"x"|} ]

(* (offset, length) of every run of digits and every double-quoted
   string. *)
let value_fields text =
  let n = String.length text in
  let rec scan i acc =
    if i >= n then List.rev acc
    else
      match text.[i] with
      | '0' .. '9' ->
        let j = ref i in
        while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
        scan !j ((i, !j - i) :: acc)
      | '"' -> (
        match String.index_from_opt text (i + 1) '"' with
        | Some j -> scan (j + 1) ((i, j + 1 - i) :: acc)
        | None -> List.rev acc)
      | _ -> scan (i + 1) acc
  in
  scan 0 []

let all ~values text =
  let n = String.length text in
  let truncations = List.init (n + 1) (fun k -> String.sub text 0 k) in
  let flips =
    List.concat_map (fun i -> List.map (flip text i) (flip_chars text.[i])) (List.init n Fun.id)
  in
  let splices =
    List.concat_map
      (fun (at, len) -> List.map (splice text ~at ~len) values)
      (value_fields text)
  in
  truncations @ flips @ splices
