module P = Spr_layout.Placement
module A = Spr_arch.Arch
module N = Spr_netlist.Netlist

(* Outer bound2bound reweighting passes, the conjugate-gradient
   iteration cap and relative residual per solve, and the half-width (in
   slot units) of the symmetry-breaking jitter around the fabric
   center. *)
let passes = 10

let cg_iters = 200

let cg_tol = 1e-6

let jitter = 0.15

type result = {
  ap_slots : P.slot array;
  ap_pinmaps : int array;
  ap_hpwl : float;
}

(* Clockwise boundary walk from the top-left corner. Degenerate fabrics
   (one row or one column) reduce to a single sweep with no duplicate
   slots. *)
let perimeter_walk arch =
  let rows = arch.A.rows and cols = arch.A.cols in
  let acc = ref [] in
  let push row col = acc := { P.row; col } :: !acc in
  for c = 0 to cols - 1 do
    push 0 c
  done;
  for r = 1 to rows - 1 do
    push r (cols - 1)
  done;
  if rows > 1 then
    for c = cols - 2 downto 0 do
      push (rows - 1) c
    done;
  if cols > 1 then
    for r = rows - 2 downto 1 do
      push r 0
    done;
  Array.of_list (List.rev !acc)

(* Distinct cells on each net, driver first, order deterministic. *)
let net_cells nl =
  Array.map
    (fun (net : N.net) ->
      let seen = Hashtbl.create 8 in
      let cells = ref [] in
      let add c =
        if not (Hashtbl.mem seen c) then begin
          Hashtbl.add seen c ();
          cells := c :: !cells
        end
      in
      add net.N.driver;
      Array.iter (fun (c, _pin) -> add c) net.N.sinks;
      Array.of_list (List.rev !cells))
    (N.nets nl)

(* --- sparse quadratic system over the movable cells ---

   Assembled fresh every pass: [diag]/[rhs] plus a flat edge list for
   the off-diagonal terms. A tiny center anchor regularizes cells that
   touch no net (and keeps the system positive definite). *)

type system = {
  diag : float array;
  rhs : float array;
  mutable edges : (int * int * float) list;
}

let add_edge sys a b w =
  sys.diag.(a) <- sys.diag.(a) +. w;
  sys.diag.(b) <- sys.diag.(b) +. w;
  sys.edges <- (a, b, w) :: sys.edges

let add_anchor sys a w target =
  sys.diag.(a) <- sys.diag.(a) +. w;
  sys.rhs.(a) <- sys.rhs.(a) +. (w *. target)

let matvec sys x y =
  Array.iteri (fun i d -> y.(i) <- d *. x.(i)) sys.diag;
  List.iter
    (fun (a, b, w) ->
      y.(a) <- y.(a) -. (w *. x.(b));
      y.(b) <- y.(b) -. (w *. x.(a)))
    sys.edges

let dot a b =
  let s = ref 0.0 in
  Array.iteri (fun i ai -> s := !s +. (ai *. b.(i))) a;
  !s

(* Standard conjugate gradient, warm-started from the current
   positions. Strictly sequential, so bit-deterministic. *)
let cg_solve ~iters ~tol sys x =
  let n = Array.length x in
  let ax = Array.make n 0.0 in
  matvec sys x ax;
  let r = Array.init n (fun i -> sys.rhs.(i) -. ax.(i)) in
  let p = Array.copy r in
  let ap = Array.make n 0.0 in
  let rs = ref (dot r r) in
  let b_norm = Float.max 1e-30 (dot sys.rhs sys.rhs) in
  let k = ref 0 in
  while !k < iters && !rs > tol *. tol *. b_norm do
    matvec sys p ap;
    let pap = dot p ap in
    if pap <= 0.0 then k := iters
    else begin
      let alpha = !rs /. pap in
      for i = 0 to n - 1 do
        x.(i) <- x.(i) +. (alpha *. p.(i));
        r.(i) <- r.(i) -. (alpha *. ap.(i))
      done;
      let rs' = dot r r in
      let beta = rs' /. !rs in
      for i = 0 to n - 1 do
        p.(i) <- r.(i) +. (beta *. p.(i))
      done;
      rs := rs';
      incr k
    end
  done

let b2b_eps = 0.5

(* One bound2bound pass along one axis: net edges are weighted from the
   current positions [pos] (all cells), the solve updates the movable
   entries in place. [mov_index.(cell)] is the cell's movable index or
   -1 for a fixed pad. *)
let solve_axis ~nets ~mov_index ~mov_cells ~pos ~lo ~hi =
  let m = Array.length mov_cells in
  let sys = { diag = Array.make m 0.0; rhs = Array.make m 0.0; edges = [] } in
  let center = (lo +. hi) /. 2.0 in
  Array.iteri (fun i _ -> add_anchor sys i 1e-6 center) mov_cells;
  let connect w a b =
    let ia = mov_index.(a) and ib = mov_index.(b) in
    if ia >= 0 && ib >= 0 then add_edge sys ia ib w
    else if ia >= 0 then add_anchor sys ia w pos.(b)
    else if ib >= 0 then add_anchor sys ib w pos.(a)
  in
  Array.iter
    (fun cells ->
      let p = Array.length cells in
      if p >= 2 then begin
        let blo = ref cells.(0) and bhi = ref cells.(0) in
        Array.iter
          (fun c ->
            if pos.(c) < pos.(!blo) then blo := c;
            if pos.(c) > pos.(!bhi) then bhi := c)
          cells;
        let w0 = 2.0 /. float_of_int (p - 1) in
        connect (w0 /. (pos.(!bhi) -. pos.(!blo) +. b2b_eps)) !blo !bhi;
        Array.iter
          (fun c ->
            if c <> !blo && c <> !bhi then begin
              connect (w0 /. (pos.(c) -. pos.(!blo) +. b2b_eps)) c !blo;
              connect (w0 /. (pos.(!bhi) -. pos.(c) +. b2b_eps)) c !bhi
            end)
          cells
      end)
    nets;
  let x = Array.map (fun c -> pos.(c)) mov_cells in
  cg_solve ~iters:cg_iters ~tol:cg_tol sys x;
  Array.iteri (fun i c -> pos.(c) <- Float.min hi (Float.max lo x.(i))) mov_cells

(* Sorted spreading onto the row fabric: movable cells sorted by
   continuous y fill the rows in proportion to each row's free
   capacity; within a row, sorted by x, they take the free columns left
   to right. *)
let legalize arch ~pad_slot ~mov_cells ~xs ~ys =
  let rows = arch.A.rows and cols = arch.A.cols in
  let pad_here = Array.make_matrix rows cols false in
  Array.iter (function Some { P.row; col } -> pad_here.(row).(col) <- true | None -> ()) pad_slot;
  let cap =
    Array.init rows (fun r ->
        let free = ref 0 in
        for c = 0 to cols - 1 do
          if not pad_here.(r).(c) then incr free
        done;
        !free)
  in
  let total_cap = Array.fold_left ( + ) 0 cap in
  let order = Array.copy mov_cells in
  Array.sort
    (fun a b ->
      match compare ys.(a) ys.(b) with
      | 0 -> ( match compare xs.(a) xs.(b) with 0 -> compare a b | c -> c)
      | c -> c)
    order;
  let m = Array.length order in
  let row_of = Array.make m (-1) in
  let taken = ref 0 in
  let cum = ref 0 in
  Array.iteri
    (fun r cap_r ->
      cum := !cum + cap_r;
      let target = !cum * m / max 1 total_cap in
      let take = min cap_r (max 0 (target - !taken)) in
      for i = !taken to !taken + take - 1 do
        row_of.(i) <- r
      done;
      taken := !taken + take)
    cap;
  (* Rounding can strand a short tail; it carries the largest y, so it
     spills into spare capacity from the bottom row upward. *)
  if !taken < m then begin
    let used = Array.make rows 0 in
    Array.iter (fun r -> if r >= 0 then used.(r) <- used.(r) + 1) row_of;
    let r = ref (rows - 1) in
    for i = !taken to m - 1 do
      while used.(!r) >= cap.(!r) do
        decr r
      done;
      row_of.(i) <- !r;
      used.(!r) <- used.(!r) + 1
    done
  end;
  (* Within each row: occupants sorted by x take free columns left to
     right. [order] is y-sorted, so per-row grouping is a stable
     filter. *)
  let slot_of = Array.make (Array.fold_left max 0 mov_cells + 1) { P.row = 0; col = 0 } in
  for r = 0 to rows - 1 do
    let members = ref [] in
    Array.iteri (fun i c -> if row_of.(i) = r then members := c :: !members) order;
    let members =
      List.sort
        (fun a b -> match compare xs.(a) xs.(b) with 0 -> compare a b | c -> c)
        (List.rev !members)
    in
    let col = ref 0 in
    List.iter
      (fun c ->
        while pad_here.(r).(!col) do
          incr col
        done;
        slot_of.(c) <- { P.row = r; col = !col };
        incr col)
      members
  done;
  slot_of

let hpwl_of ~nets ~slots =
  let total = ref 0.0 in
  Array.iter
    (fun cells ->
      if Array.length cells >= 2 then begin
        let xlo = ref max_int and xhi = ref min_int in
        let ylo = ref max_int and yhi = ref min_int in
        Array.iter
          (fun c ->
            let { P.row; col } = slots.(c) in
            if col < !xlo then xlo := col;
            if col > !xhi then xhi := col;
            if row < !ylo then ylo := row;
            if row > !yhi then yhi := row)
          cells;
        total := !total +. float_of_int (!xhi - !xlo + (!yhi - !ylo))
      end)
    nets;
  !total

let run ?(deadline = fun () -> false) ~seed arch nl =
  match A.check_fits arch nl with
  | Error e -> Error e
  | Ok () ->
    let n = N.n_cells nl in
    let rows = arch.A.rows and cols = arch.A.cols in
    let nets = net_cells nl in
    (* Pads in cell-id order spread evenly along the clockwise walk. *)
    let walk = perimeter_walk arch in
    let pads =
      Array.of_list
        (List.filter
           (fun c -> Spr_netlist.Cell_kind.is_io (N.cell nl c).N.kind)
           (List.init n Fun.id))
    in
    let np = Array.length pads in
    if np > Array.length walk then
      Error (Printf.sprintf "%d pads exceed %d perimeter slots" np (Array.length walk))
    else begin
      let pad_slot = Array.make n None in
      Array.iteri
        (fun i c -> pad_slot.(c) <- Some walk.(i * Array.length walk / max 1 np))
        pads;
      let mov_index = Array.make n (-1) in
      let mov_cells =
        Array.of_list (List.filter (fun c -> pad_slot.(c) = None) (List.init n Fun.id))
      in
      Array.iteri (fun i c -> mov_index.(c) <- i) mov_cells;
      (* Continuous positions: pads at their anchors, movable cells at
         the fabric center plus a seed-derived jitter that breaks the
         symmetry of the first bound2bound pass. *)
      let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
      let rng = Spr_util.Rng.create (seed lxor 0x41505f) in
      let jit () = jitter *. ((2.0 *. Spr_util.Rng.float rng 1.0) -. 1.0) in
      for c = 0 to n - 1 do
        match pad_slot.(c) with
        | Some { P.row; col } ->
          xs.(c) <- float_of_int col;
          ys.(c) <- float_of_int row
        | None ->
          xs.(c) <- (float_of_int (cols - 1) /. 2.0) +. jit ();
          ys.(c) <- (float_of_int (rows - 1) /. 2.0) +. jit ()
      done;
      let pass = ref 0 in
      while !pass < passes && not (deadline ()) do
        incr pass;
        solve_axis ~nets ~mov_index ~mov_cells ~pos:xs ~lo:0.0 ~hi:(float_of_int (cols - 1));
        solve_axis ~nets ~mov_index ~mov_cells ~pos:ys ~lo:0.0 ~hi:(float_of_int (rows - 1))
      done;
      let mov_slot = legalize arch ~pad_slot ~mov_cells ~xs ~ys in
      let slots =
        Array.init n (fun c -> match pad_slot.(c) with Some s -> s | None -> mov_slot.(c))
      in
      Ok { ap_slots = slots; ap_pinmaps = Array.make n 0; ap_hpwl = hpwl_of ~nets ~slots }
    end
