type params = {
  n_cells : int;
  pi_frac : float;
  po_frac : float;
  seq_frac : float;
  max_fanin : int;
  locality : float;
  window : int;
  feedback : float;
}

let default ~n_cells =
  {
    n_cells;
    pi_frac = 0.08;
    po_frac = 0.06;
    seq_frac = 0.08;
    max_fanin = 4;
    locality = 0.65;
    window = 24;
    feedback = 0.5;
  }

(* Intermediate cell record; fanin lists stay mutable until the netlist
   is frozen so that dangling outputs can be wired up in a post-pass. *)
type proto = {
  p_name : string;
  p_kind : Cell_kind.t;
  mutable p_fanins : int list;  (* driver proto indices, reversed *)
}

let frac_count total frac lo = max lo (int_of_float (Float.round (float_of_int total *. frac)))

(* Fanin count distribution for combinational cells: mean ~2.7 when
   max_fanin = 4, matching LUT/multiplexer-module mapped circuits. *)
let draw_fanin rng max_fanin =
  let r = Spr_util.Rng.float rng 1.0 in
  let k = if r < 0.12 then 1 else if r < 0.42 then 2 else if r < 0.78 then 3 else 4 in
  min k max_fanin

let generate params ~seed =
  let rng = Spr_util.Rng.create seed in
  let n = params.n_cells in
  let n_pi = frac_count n params.pi_frac 2 in
  let n_po = frac_count n params.po_frac 1 in
  let n_seq = frac_count n params.seq_frac 0 in
  let n_comb = n - n_pi - n_po - n_seq in
  if n_comb < 1 then invalid_arg "Generator.generate: n_cells too small for the I/O fractions";
  if params.max_fanin < 1 then invalid_arg "Generator.generate: max_fanin must be >= 1";
  let protos = Array.make n { p_name = ""; p_kind = Cell_kind.Comb; p_fanins = [] } in
  let n_protos = ref 0 in
  let add_proto name kind fanins =
    let idx = !n_protos in
    protos.(idx) <- { p_name = name; p_kind = kind; p_fanins = fanins };
    incr n_protos;
    idx
  in
  (* Pool of signal-producing cells, in creation order. *)
  let avail = Array.make n 0 in
  let n_avail = ref 0 in
  let push_avail i =
    avail.(!n_avail) <- i;
    incr n_avail
  in
  for i = 0 to n_pi - 1 do
    push_avail (add_proto (Printf.sprintf "pi%d" i) Cell_kind.Input [])
  done;
  (* Locality-biased driver choice: mostly recent signals, occasionally
     any earlier signal, so paths deepen rather than staying flat. *)
  let pick_driver () =
    let m = !n_avail in
    if Spr_util.Rng.float rng 1.0 < params.locality && m > params.window then
      avail.(m - 1 - Spr_util.Rng.int rng params.window)
    else avail.(Spr_util.Rng.int rng m)
  in
  let pick_distinct k =
    let rec loop acc tries remaining =
      if remaining = 0 || tries > 20 then acc
      else begin
        let d = pick_driver () in
        if List.mem d acc then loop acc (tries + 1) remaining
        else loop (d :: acc) tries (remaining - 1)
      end
    in
    loop [] 0 k
  in
  (* Interleave combinational cells and flip-flops in a random order. *)
  let body = Array.make (n_comb + n_seq) Cell_kind.Comb in
  for i = n_comb to n_comb + n_seq - 1 do
    body.(i) <- Cell_kind.Seq
  done;
  Spr_util.Rng.shuffle_in_place rng body;
  Array.iteri
    (fun i kind ->
      let fanins =
        match kind with
        | Cell_kind.Seq -> pick_distinct 1
        | Cell_kind.Comb -> pick_distinct (draw_fanin rng params.max_fanin)
        | Cell_kind.Input | Cell_kind.Output -> assert false
      in
      let prefix = match kind with Cell_kind.Seq -> "ff" | _ -> "g" in
      push_avail (add_proto (Printf.sprintf "%s%d" prefix i) kind fanins))
    body;
  (* Primary outputs drain unused signals first. *)
  let fanout = Array.make n 0 in
  for i = 0 to !n_protos - 1 do
    List.iter (fun d -> fanout.(d) <- fanout.(d) + 1) protos.(i).p_fanins
  done;
  let unused = ref [] in
  for i = !n_protos - 1 downto 0 do
    if fanout.(i) = 0 && Cell_kind.has_output protos.(i).p_kind then unused := i :: !unused
  done;
  let unused = Array.of_list !unused in
  Spr_util.Rng.shuffle_in_place rng unused;
  for i = 0 to n_po - 1 do
    let d =
      if i < Array.length unused then unused.(i) else avail.(Spr_util.Rng.int rng !n_avail)
    in
    ignore (add_proto (Printf.sprintf "po%d" i) Cell_kind.Output [ d ]);
    fanout.(d) <- fanout.(d) + 1
  done;
  let total = !n_protos in
  (* Remaining dangling outputs become extra fanins of later cells
     (keeping the creation order acyclic for combinational signals);
     flip-flop outputs may feed any combinational cell since loops through
     a latch are legal. *)
  let comb_cells_from lo =
    let acc = ref [] in
    for j = total - 1 downto lo do
      if Cell_kind.equal protos.(j).p_kind Cell_kind.Comb then acc := j :: !acc
    done;
    !acc
  in
  for i = 0 to total - 1 do
    let p = protos.(i) in
    if fanout.(i) = 0 && Cell_kind.has_output p.p_kind then begin
      let lo = match p.p_kind with Cell_kind.Seq -> 0 | _ -> i + 1 in
      let candidates =
        List.filter
          (fun j ->
            j <> i
            && List.length protos.(j).p_fanins < params.max_fanin
            && not (List.mem i protos.(j).p_fanins))
          (comb_cells_from lo)
      in
      match candidates with
      | [] -> ()  (* genuinely dangling; the net simply has no sinks *)
      | cs ->
        let j = Spr_util.Rng.pick_list rng cs in
        protos.(j).p_fanins <- i :: protos.(j).p_fanins;
        fanout.(i) <- fanout.(i) + 1
    end
  done;
  (* Flip-flop feedback: route some FF outputs back into earlier logic. *)
  for i = 0 to total - 1 do
    let p = protos.(i) in
    if Cell_kind.equal p.p_kind Cell_kind.Seq && Spr_util.Rng.float rng 1.0 < params.feedback
    then begin
      let candidates =
        List.filter
          (fun j ->
            j <> i
            && List.length protos.(j).p_fanins < params.max_fanin
            && not (List.mem i protos.(j).p_fanins))
          (comb_cells_from 0)
      in
      match candidates with
      | [] -> ()
      | cs ->
        let j = Spr_util.Rng.pick_list rng cs in
        protos.(j).p_fanins <- i :: protos.(j).p_fanins;
        fanout.(i) <- fanout.(i) + 1
    end
  done;
  (* Freeze into a validated netlist. *)
  let b = Netlist.Builder.create () in
  let ids =
    Array.init total (fun i ->
        let p = protos.(i) in
        Netlist.Builder.add_cell b ~name:p.p_name ~kind:p.p_kind
          ~n_inputs:(List.length p.p_fanins))
  in
  let net_of = Array.make total (-1) in
  for i = 0 to total - 1 do
    if Cell_kind.has_output protos.(i).p_kind then
      net_of.(i) <- Netlist.Builder.add_net b ~name:("n_" ^ protos.(i).p_name) ~driver:ids.(i)
  done;
  for i = 0 to total - 1 do
    List.iteri
      (fun pin d -> Netlist.Builder.add_sink b ~net:net_of.(d) ~cell:ids.(i) ~pin)
      (List.rev protos.(i).p_fanins)
  done;
  Netlist.Builder.finish_exn b
