type side = Top | Bottom

type t = side array

let side_equal a b =
  match a, b with
  | Top, Top | Bottom, Bottom -> true
  | (Top | Bottom), _ -> false

let equal a b = Array.length a = Array.length b && Array.for_all2 side_equal a b

let copy = Array.copy

let palette ~n_pins =
  assert (n_pins >= 0);
  if n_pins = 0 then [| [||] |]
  else begin
    let candidates =
      [ Array.make n_pins Bottom;
        Array.make n_pins Top;
        Array.init n_pins (fun i -> if i mod 2 = 0 then Bottom else Top);
        Array.init n_pins (fun i -> if i mod 2 = 0 then Top else Bottom) ]
    in
    let distinct =
      List.fold_left
        (fun acc pm -> if List.exists (equal pm) acc then acc else pm :: acc)
        [] candidates
    in
    Array.of_list (List.rev distinct)
  end
