let fnv_offset = 0xCBF29CE484222325L

let fnv_prime = 0x100000001B3L

let fnv1a64 s =
  let h = ref fnv_offset in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let checksum_hex s = Printf.sprintf "%016Lx" (fnv1a64 s)

let frame ~magic ~version payload =
  Printf.sprintf "%s %d %s %d\n%s" magic version (checksum_hex payload) (String.length payload)
    payload

let unframe ~magic ~version text =
  let error fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  match String.index_opt text '\n' with
  | None -> error "empty or headerless %s file" magic
  | Some i -> (
    match String.split_on_char ' ' (String.sub text 0 i) |> List.filter (( <> ) "") with
    | m :: v :: rest when m = magic -> (
      let have = String.length text - i - 1 in
      match int_of_string_opt v, rest with
      | Some v, _ when v <> version ->
        error "unsupported %s version %d (this loader reads version %d)" magic v version
      | Some _, [ crc; len ] -> (
        match int_of_string_opt len with
        | Some len when len > have -> error "truncated %s: %d of %d payload bytes" magic have len
        | Some len when len >= 0 ->
          let payload = String.sub text (i + 1) len in
          let actual = checksum_hex payload in
          if String.equal actual crc then Ok payload
          else error "%s checksum mismatch: header %s, payload %s" magic crc actual
        | _ -> error "malformed %s header" magic)
      | _ -> error "malformed %s header" magic)
    | _ -> error "not a %s file" magic)

let float_to_hex f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let float_of_hex s =
  if String.length s <> 16 then None
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some bits -> Some (Int64.float_of_bits bits)
    | None -> None

let int64_to_hex i = Printf.sprintf "%016Lx" i

let int64_of_hex s =
  if String.length s <> 16 then None else Int64.of_string_opt ("0x" ^ s)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let atomic_write ?(durable = false) path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc text;
     if durable then begin
       flush oc;
       Unix.fsync (Unix.descr_of_out_channel oc)
     end;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  if durable then fsync_dir (Filename.dirname path)

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
    match
      let len = in_channel_length ic in
      really_input_string ic len
    with
    | text ->
      close_in_noerr ic;
      Ok text
    | exception e ->
      close_in_noerr ic;
      Error (Printexc.to_string e))

let ensure_dir path =
  (* Fleet replicas create their shared run directory concurrently, so
     losing the race to another creator is success. *)
  (try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ());
  if not (Sys.is_directory path) then
    invalid_arg (Printf.sprintf "Persist.ensure_dir: %s exists and is not a directory" path)
