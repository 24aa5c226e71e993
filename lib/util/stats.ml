type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () = { n = 0; mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.n

let mean t = if t.n = 0 then 0.0 else t.mean

let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int t.n

let stddev t = sqrt (variance t)

let min_value t = t.min_v

let max_value t = t.max_v

let reset t =
  t.n <- 0;
  t.mean <- 0.0;
  t.m2 <- 0.0;
  t.min_v <- infinity;
  t.max_v <- neg_infinity

type dump = {
  d_n : int;
  d_mean : float;
  d_m2 : float;
  d_min : float;
  d_max : float;
}

let dump t = { d_n = t.n; d_mean = t.mean; d_m2 = t.m2; d_min = t.min_v; d_max = t.max_v }

let restore d = { n = d.d_n; mean = d.d_mean; m2 = d.d_m2; min_v = d.d_min; max_v = d.d_max }

let mean_of xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
