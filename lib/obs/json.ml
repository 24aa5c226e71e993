type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Shortest decimal form that parses back to the same bits; traces stay
   readable without sacrificing bit-exact round-trips. *)
let float_repr f =
  if f <> f then "null"
  else if f = infinity then "1e999"
  else if f = neg_infinity then "-1e999"
  else begin
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else begin
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f
    end
  end

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string ?(indent = false) v =
  let buf = Buffer.create 256 in
  let pad depth = if indent then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          go (depth + 1) item)
        items;
      nl ();
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          escape buf k;
          Buffer.add_char buf ':';
          if indent then Buffer.add_char buf ' ';
          go (depth + 1) item)
        fields;
      nl ();
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

exception Parse_error of int * string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected %c, got %c" c got)
    | None -> fail (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word value =
    let m = String.length word in
    if !pos + m <= n && String.sub text !pos m = word then begin
      pos := !pos + m;
      value
    end
    else fail ("bad literal, expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else begin
        let c = text.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (if !pos >= n then fail "unterminated escape"
           else begin
             let e = text.[!pos] in
             advance ();
             match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'u' ->
               if !pos + 4 > n then fail "truncated \\u escape"
               else begin
                 let hex = String.sub text !pos 4 in
                 pos := !pos + 4;
                 match int_of_string_opt ("0x" ^ hex) with
                 | None -> fail "bad \\u escape"
                 | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
                 | Some code when code < 0x800 ->
                   (* 2-byte UTF-8 *)
                   Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                 | Some code ->
                   Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                   Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
               end
             | c -> fail (Printf.sprintf "bad escape \\%c" c)
           end);
          go ()
        | c ->
          Buffer.add_char buf c;
          go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char text.[!pos] do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
    if not is_float then (
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt s with Some f -> Float f | None -> fail ("bad number " ^ s)))
    else
      match float_of_string_opt s with Some f -> Float f | None -> fail ("bad number " ^ s)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (Printf.sprintf "json: %s at offset %d" msg at)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | Null -> Some Float.nan
  | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function List l -> Some l | _ -> None

(* --- field readers ---
   Decoders raise [Decode] from deep inside a record; [decode] is the one
   place that turns it, or anything else a surprising shape provokes,
   into [Error]. *)

exception Decode of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Decode msg)) fmt

let decode ~what f j =
  match f j with
  | v -> Ok v
  | exception Decode msg -> Error msg
  | exception exn -> Error (Printf.sprintf "malformed %s: %s" what (Printexc.to_string exn))

let ok ?context = function
  | Ok v -> v
  | Error e -> (
    match context with None -> fail "%s" e | Some c -> fail "%s: %s" c e)

let get j name = match member name j with Some v -> v | None -> fail "missing field %s" name

let expect kind conv name v =
  match conv v with Some x -> x | None -> fail "field %s: expected %s" name kind

let read kind conv j name = expect kind conv name (get j name)

let dint = read "int" to_int

let dfloat = read "number" to_float

let dstr = read "string" to_str

let dbool = read "bool" to_bool

let dlist = read "list" to_list

let dfields = read "object" (function Obj fields -> Some fields | _ -> None)

let dopt read j name =
  match member name j with None | Some Null -> None | Some _ -> Some (read j name)
