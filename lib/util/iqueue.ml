type t = {
  mutable elts : int array;  (* member ids in [0, len), sorted by (key desc, id desc); grows *)
  mutable len : int;
  key : int array;  (* id -> priority key, or [absent] when not queued *)
}

(* The key of an id that is not queued; [add] refuses it. *)
let absent = min_int

let create ~capacity =
  if capacity < 0 then invalid_arg "Iqueue.create: negative capacity";
  { elts = [||]; len = 0; key = Array.make capacity absent }

let capacity t = Array.length t.key

let length t = t.len

let mem t id = t.key.(id) <> absent

let key t id =
  if not (mem t id) then invalid_arg "Iqueue.key: id not queued";
  t.key.(id)

(* Strict queue order: higher key first, ties broken by descending id
   (the historical retry order of the reference sorter). Total because
   ids are distinct, so the sorted array is the unique canonical layout
   for any membership set — rollback by inverse insert/remove restores
   the queue exactly. *)
let before t a b = t.key.(a) > t.key.(b) || (t.key.(a) = t.key.(b) && a > b)

(* First rank whose element does not sort before [id]: the insertion
   point of an absent id, and the rank of a queued one. *)
let insertion_index t id =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if before t t.elts.(mid) id then lo := mid + 1 else hi := mid
  done;
  !lo

(* Members are distinct ids, so the array never needs more than
   [capacity] slots. *)
let grow t =
  let elts = Array.make (min (capacity t) (max 16 (2 * t.len))) 0 in
  Array.blit t.elts 0 elts 0 t.len;
  t.elts <- elts

let insert_raw t id ~key =
  t.key.(id) <- key;
  let at = insertion_index t id in
  if t.len = Array.length t.elts then grow t;
  Array.blit t.elts at t.elts (at + 1) (t.len - at);
  t.elts.(at) <- id;
  t.len <- t.len + 1

let remove_raw t id =
  let at = insertion_index t id in
  Array.blit t.elts (at + 1) t.elts at (t.len - at - 1);
  t.len <- t.len - 1;
  t.key.(id) <- absent

let add ?j t id ~key =
  if key = absent then invalid_arg "Iqueue.add: min_int is not a key";
  if mem t id then begin
    if t.key.(id) <> key then begin
      let old = t.key.(id) in
      remove_raw t id;
      insert_raw t id ~key;
      match j with
      | None -> ()
      | Some j ->
        Journal.record j (fun () ->
            remove_raw t id;
            insert_raw t id ~key:old)
    end
  end
  else begin
    insert_raw t id ~key;
    match j with
    | None -> ()
    | Some j -> Journal.record j (fun () -> remove_raw t id)
  end

let remove ?j t id =
  if not (mem t id) then false
  else begin
    let old = t.key.(id) in
    remove_raw t id;
    (match j with
    | None -> ()
    | Some j -> Journal.record j (fun () -> insert_raw t id ~key:old));
    true
  end

let nth t i =
  if i < 0 || i >= t.len then invalid_arg "Iqueue.nth: rank out of range";
  t.elts.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.elts.(i)
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun id -> acc := f id !acc) t;
  !acc

let to_list t = List.rev (fold (fun id acc -> id :: acc) t [])

(* A strict order lists no id twice, so when every listed id is a
   member and the member count is [len], the listed ids are exactly the
   members. *)
let check t =
  let err fmt = Printf.ksprintf (fun s -> Error ("Iqueue: " ^ s)) fmt in
  let rec listed i =
    if i >= t.len then Ok ()
    else
      let id = t.elts.(i) in
      if id < 0 || id >= capacity t then err "rank %d holds id %d, outside the id range" i id
      else if not (mem t id) then err "rank %d holds id %d, which is not queued" i id
      else listed (i + 1)
  in
  let rec order i =
    if i + 1 >= t.len then Ok ()
    else if not (before t t.elts.(i) t.elts.(i + 1)) then
      err "order violated at rank %d (ids %d, %d)" i t.elts.(i) t.elts.(i + 1)
    else order (i + 1)
  in
  let members = Array.fold_left (fun n k -> if k <> absent then n + 1 else n) 0 t.key in
  if t.len > Array.length t.elts then err "len %d exceeds the element array" t.len
  else if members <> t.len then err "%d ids are queued but len is %d" members t.len
  else
    match listed 0 with
    | Error _ as e -> e
    | Ok () -> order 0
