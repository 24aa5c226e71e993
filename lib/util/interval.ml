type t = { lo : int; hi : int }

let make lo hi =
  assert (lo <= hi);
  { lo; hi }

let point x = { lo = x; hi = x }

let length t = t.hi - t.lo + 1

let contains t x = t.lo <= x && x <= t.hi

let covers a b = a.lo <= b.lo && b.hi <= a.hi

let overlaps a b = a.lo <= b.hi && b.lo <= a.hi

let adjacent a b = a.hi + 1 = b.lo || b.hi + 1 = a.lo

let hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let clamp t ~lo ~hi =
  let lo' = max t.lo lo and hi' = min t.hi hi in
  assert (lo' <= hi');
  { lo = lo'; hi = hi' }

let to_string t = Printf.sprintf "[%d,%d]" t.lo t.hi
