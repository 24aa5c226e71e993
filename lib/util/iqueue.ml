type t = {
  elts : int array;  (* member ids, sorted by (key desc, id desc) *)
  mutable len : int;
  pos : int array;  (* id -> index in elts, or -1 when absent *)
  key : int array;  (* id -> priority key, meaningful while present *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Iqueue.create: negative capacity";
  {
    elts = Array.make capacity 0;
    len = 0;
    pos = Array.make capacity (-1);
    key = Array.make capacity 0;
  }

let capacity t = Array.length t.pos

let length t = t.len

let mem t id = t.pos.(id) >= 0

let key t id =
  if not (mem t id) then invalid_arg "Iqueue.key: id not queued";
  t.key.(id)

(* Strict queue order: higher key first, ties broken by descending id
   (the historical retry order of the reference sorter). Total because
   ids are distinct, so the sorted array is the unique canonical layout
   for any membership set — rollback by inverse insert/remove restores
   the queue exactly. *)
let before t a b = t.key.(a) > t.key.(b) || (t.key.(a) = t.key.(b) && a > b)

(* First index whose element sorts after [id]; insertion point. *)
let insertion_index t id =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if before t t.elts.(mid) id then lo := mid + 1 else hi := mid
  done;
  !lo

let insert_raw t id ~key =
  t.key.(id) <- key;
  let at = insertion_index t id in
  Array.blit t.elts at t.elts (at + 1) (t.len - at);
  t.elts.(at) <- id;
  t.len <- t.len + 1;
  for i = at to t.len - 1 do
    t.pos.(t.elts.(i)) <- i
  done

let remove_raw t id =
  let at = t.pos.(id) in
  Array.blit t.elts (at + 1) t.elts at (t.len - at - 1);
  t.len <- t.len - 1;
  t.pos.(id) <- -1;
  for i = at to t.len - 1 do
    t.pos.(t.elts.(i)) <- i
  done

let add ?j t id ~key =
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

let check t =
  let err fmt = Printf.ksprintf (fun s -> Error ("Iqueue: " ^ s)) fmt in
  let rec order i =
    if i + 1 >= t.len then Ok ()
    else if not (before t t.elts.(i) t.elts.(i + 1)) then
      err "order violated at rank %d (ids %d, %d)" i t.elts.(i) t.elts.(i + 1)
    else order (i + 1)
  in
  let rec positions i =
    if i >= t.len then Ok ()
    else if t.pos.(t.elts.(i)) <> i then
      err "pos mirror of id %d is %d, expected %d" t.elts.(i) t.pos.(t.elts.(i)) i
    else positions (i + 1)
  in
  let members = Array.fold_left (fun n p -> if p >= 0 then n + 1 else n) 0 t.pos in
  if members <> t.len then err "pos mirror holds %d members but len is %d" members t.len
  else
    match positions 0 with
    | Error _ as e -> e
    | Ok () -> order 0
