(* Aggregated span tree for the traced run.

   Every call site is known in advance, so nodes are created once and
   each timed call just adds its duration to its node and to its
   parent's covered time: a node's self time is its duration minus the
   part its children cover. Nodes that sample keep every call's
   duration for latency percentiles. *)

type node = {
  name : string;
  parent : node option;
  mutable total : float;
  mutable covered : float;  (* seconds of [total] inside child spans *)
  mutable calls : int;
  mutable kids : node list;  (* newest first *)
  mutable samples : float array;  (* [||] unless sampling *)
  mutable n_samples : int;
}

type t = { clock : unit -> float; root : node }

let make_node ?parent ~sample name =
  {
    name;
    parent;
    total = 0.0;
    covered = 0.0;
    calls = 0;
    kids = [];
    samples = (if sample then Array.make 1024 0.0 else [||]);
    n_samples = 0;
  }

let create ~clock name = { clock; root = make_node ~sample:false name }

let root t = t.root

let child ?(sample = false) parent name =
  match List.find_opt (fun k -> k.name = name) parent.kids with
  | Some k -> k
  | None ->
    let k = make_node ~parent ~sample name in
    parent.kids <- k :: parent.kids;
    k

(* Charge [seconds] over [calls] calls to [node], as if timed. *)
let add node ~seconds ~calls =
  node.total <- node.total +. seconds;
  node.calls <- node.calls + calls;
  match node.parent with Some p -> p.covered <- p.covered +. seconds | None -> ()

let record node dt =
  add node ~seconds:dt ~calls:1;
  if Array.length node.samples > 0 then begin
    if node.n_samples = Array.length node.samples then begin
      let bigger = Array.make (2 * node.n_samples) 0.0 in
      Array.blit node.samples 0 bigger 0 node.n_samples;
      node.samples <- bigger
    end;
    node.samples.(node.n_samples) <- dt;
    node.n_samples <- node.n_samples + 1
  end

let time t node f =
  let t0 = t.clock () in
  match f () with
  | v ->
    record node (t.clock () -. t0);
    v
  | exception e ->
    record node (t.clock () -. t0);
    raise e

let self node = node.total -. node.covered

let samples node = Array.to_list (Array.sub node.samples 0 node.n_samples)

let rec fold f acc node = List.fold_left (fold f) (f acc node) node.kids

(* Total seconds of every node called [name], wherever it sits. *)
let total_named t name =
  fold (fun acc n -> if n.name = name then acc +. n.total else acc) 0.0 t.root

let self_named t name = fold (fun acc n -> if n.name = name then acc +. self n else acc) 0.0 t.root

(* Share of the root's duration that no child span covers. *)
let unaccounted_share t = if t.root.total <= 0.0 then 0.0 else self t.root /. t.root.total
