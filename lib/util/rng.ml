type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let state t = t.state

let of_state state = { state }

(* splitmix64 finalizer: the standard mix of Steele, Lea and Flood. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let stream ~seed ~index =
  if index < 0 then invalid_arg "Rng.stream: negative index";
  if index = 0 then create seed
  else begin
    let master = create seed in
    let g = ref (split master) in
    for _ = 2 to index do
      g := split master
    done;
    !g
  end

(* Keep 62 bits so the conversion to OCaml's 63-bit int stays
   non-negative. *)
let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let pick_list t items =
  match items with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth items (int t (List.length items))

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
