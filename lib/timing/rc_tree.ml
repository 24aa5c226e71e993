type t = {
  mutable caps : float array;
  mutable adj : (int * float) list array;  (* neighbour, edge resistance *)
  mutable n : int;
  mutable n_edges : int;
}

let create () = { caps = Array.make 8 0.0; adj = Array.make 8 []; n = 0; n_edges = 0 }

let ensure t i =
  let cap = Array.length t.caps in
  if i >= cap then begin
    let caps = Array.make (max (i + 1) (cap * 2)) 0.0 in
    Array.blit t.caps 0 caps 0 t.n;
    t.caps <- caps;
    let adj = Array.make (Array.length caps) [] in
    Array.blit t.adj 0 adj 0 t.n;
    t.adj <- adj
  end

let add_node t ~cap =
  ensure t t.n;
  let id = t.n in
  t.caps.(id) <- cap;
  t.n <- t.n + 1;
  id

let add_cap t ~node ~cap =
  assert (node < t.n);
  t.caps.(node) <- t.caps.(node) +. cap

let add_edge t a b ~res =
  assert (a < t.n && b < t.n && a <> b);
  t.adj.(a) <- (b, res) :: t.adj.(a);
  t.adj.(b) <- (a, res) :: t.adj.(b);
  t.n_edges <- t.n_edges + 1

(* Orient the undirected tree from [root] with BFS; nets can be deep
   chains, so no recursion anywhere below. *)
let orient t ~root =
  if root >= t.n then invalid_arg "Rc_tree.elmore: bad root";
  if t.n_edges <> t.n - 1 then invalid_arg "Rc_tree.elmore: not a tree";
  let parent = Array.make t.n (-1) in
  let parent_res = Array.make t.n 0.0 in
  let order = Array.make t.n 0 in
  let visited = Array.make t.n false in
  let head = ref 0 and tail = ref 0 in
  order.(0) <- root;
  visited.(root) <- true;
  tail := 1;
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    List.iter
      (fun (v, res) ->
        if not visited.(v) then begin
          visited.(v) <- true;
          parent.(v) <- u;
          parent_res.(v) <- res;
          order.(!tail) <- v;
          incr tail
        end)
      t.adj.(u)
  done;
  if !tail <> t.n then invalid_arg "Rc_tree.elmore: disconnected";
  (parent, parent_res, order)

let subtree_sum t ~parent ~order weights =
  let acc = Array.copy weights in
  for i = t.n - 1 downto 1 do
    let v = order.(i) in
    acc.(parent.(v)) <- acc.(parent.(v)) +. acc.(v)
  done;
  acc

let elmore t ~root =
  let parent, parent_res, order = orient t ~root in
  let subtree_cap = subtree_sum t ~parent ~order (Array.sub t.caps 0 t.n) in
  let delay = Array.make t.n 0.0 in
  for i = 1 to t.n - 1 do
    let v = order.(i) in
    delay.(v) <- delay.(parent.(v)) +. (parent_res.(v) *. subtree_cap.(v))
  done;
  delay

(* Second moment via the standard RC-tree recurrence:
   m2(v) = m2(parent) + R_edge * sum_{k in subtree(v)} C_k * m1(k). *)
let moments t ~root =
  let parent, parent_res, order = orient t ~root in
  let subtree_cap = subtree_sum t ~parent ~order (Array.sub t.caps 0 t.n) in
  let m1 = Array.make t.n 0.0 in
  for i = 1 to t.n - 1 do
    let v = order.(i) in
    m1.(v) <- m1.(parent.(v)) +. (parent_res.(v) *. subtree_cap.(v))
  done;
  let weighted = Array.init t.n (fun v -> t.caps.(v) *. m1.(v)) in
  let subtree_cm1 = subtree_sum t ~parent ~order weighted in
  let m2 = Array.make t.n 0.0 in
  for i = 1 to t.n - 1 do
    let v = order.(i) in
    m2.(v) <- m2.(parent.(v)) +. (parent_res.(v) *. subtree_cm1.(v))
  done;
  (m1, m2)
