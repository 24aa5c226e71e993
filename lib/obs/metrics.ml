type counter = { mutable c : int }

type gauge = { mutable g : float }

type histogram = { h_bounds : float array; h_counts : int array; mutable h_total : int }

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list;  (* registration order, reversed *)
}

let create () = { tbl = Hashtbl.create 32; order = [] }

let register t name metric =
  Hashtbl.replace t.tbl name metric;
  t.order <- name :: t.order

let kind_error name = invalid_arg ("Metrics: " ^ name ^ " already registered as another kind")

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some _ -> kind_error name
  | None ->
    let c = { c = 0 } in
    register t name (Counter c);
    c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g
  | Some _ -> kind_error name
  | None ->
    let g = { g = 0.0 } in
    register t name (Gauge g);
    g

let check_bounds name bounds =
  if Array.length bounds = 0 then invalid_arg ("Metrics: " ^ name ^ ": empty histogram bounds");
  for i = 1 to Array.length bounds - 1 do
    if not (bounds.(i) > bounds.(i - 1)) then
      invalid_arg ("Metrics: " ^ name ^ ": histogram bounds must be strictly increasing")
  done

let histogram t ~bounds name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) ->
    if h.h_bounds <> bounds then
      invalid_arg ("Metrics: " ^ name ^ " already registered with different bounds");
    h
  | Some _ -> kind_error name
  | None ->
    check_bounds name bounds;
    let h =
      { h_bounds = Array.copy bounds; h_counts = Array.make (Array.length bounds + 1) 0; h_total = 0 }
    in
    register t name (Histogram h);
    h

let incr c = c.c <- c.c + 1

let add c n = c.c <- c.c + n

let counter_value c = c.c

let gauge_add g dv = g.g <- g.g +. dv

let gauge_set g v = g.g <- v

let gauge_value g = g.g

let observe h v =
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n || v <= h.h_bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_total <- h.h_total + 1

let histogram_total h = h.h_total

type value =
  | Count of int
  | Value of float
  | Buckets of { bounds : float array; counts : int array }

let value_of = function
  | Counter c -> Count c.c
  | Gauge g -> Value g.g
  | Histogram h -> Buckets { bounds = Array.copy h.h_bounds; counts = Array.copy h.h_counts }

let snapshot t =
  List.rev_map (fun name -> (name, value_of (Hashtbl.find t.tbl name))) t.order

let absorb t other =
  (* fold every metric of [other] into [t] by name, registering on
     demand so a merged registry covers the union. *)
  List.iter
    (fun name ->
      match Hashtbl.find other.tbl name with
      | Counter oc -> add (counter t name) oc.c
      | Gauge og -> gauge_add (gauge t name) og.g
      | Histogram oh ->
        let h = histogram t ~bounds:oh.h_bounds name in
        Array.iteri (fun i n -> h.h_counts.(i) <- h.h_counts.(i) + n) oh.h_counts;
        h.h_total <- h.h_total + oh.h_total)
    (List.rev other.order)
