(* Order statistics for small samples of run measurements. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so the spreads printed here are the
   ones an external checker computes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
  end

(* Nearest-rank position of percentile [num/den], in integers so that
   p99 of 1000 samples is rank 990 exactly. *)
let rank ~num ~den n = max 1 (((num * n) + den - 1) / den)

(* The higher of p99 and p90 with at least ten samples beyond it, as
   [(label, value)]; [None] below 100 samples. A tail percentile with
   fewer samples past it is one outlier, not a distribution. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun (num, den, label) ->
      let r = rank ~num ~den n in
      if n - r >= 10 then Some (label, a.(r - 1)) else None)
    [ (99, 100, "p99"); (9, 10, "p90") ]
