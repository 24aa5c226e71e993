type cell = {
  id : int;
  cell_name : string;
  kind : Cell_kind.t;
  n_inputs : int;
}

type net = {
  net_id : int;
  net_name : string;
  driver : int;
  sinks : (int * int) array;
}

type t = {
  cells_arr : cell array;
  nets_arr : net array;
  out_net_arr : int array;  (* -1 when the cell drives nothing *)
  in_net_arr : int array array;  (* per cell, per input pin *)
}

module Builder = struct
  type pending_net = {
    p_name : string;
    p_driver : int;
    mutable p_sinks : (int * int) list;  (* reversed *)
  }

  type t = {
    mutable b_cells : cell list;  (* reversed *)
    mutable b_n_cells : int;
    mutable b_nets : pending_net array;  (* by net id; doubles when full *)
    mutable b_n_nets : int;
  }

  let create () = { b_cells = []; b_n_cells = 0; b_nets = [||]; b_n_nets = 0 }

  let add_cell b ~name ~kind ~n_inputs =
    assert (n_inputs >= 0);
    let id = b.b_n_cells in
    b.b_cells <- { id; cell_name = name; kind; n_inputs } :: b.b_cells;
    b.b_n_cells <- id + 1;
    id

  let add_net b ~name ~driver =
    let id = b.b_n_nets in
    let p = { p_name = name; p_driver = driver; p_sinks = [] } in
    if id = Array.length b.b_nets then begin
      let grown = Array.make (max 16 (2 * id)) p in
      Array.blit b.b_nets 0 grown 0 id;
      b.b_nets <- grown
    end;
    b.b_nets.(id) <- p;
    b.b_n_nets <- id + 1;
    id

  let add_sink b ~net ~cell ~pin =
    if net < 0 || net >= b.b_n_nets then invalid_arg "Netlist.Builder.add_sink: bad net id";
    let p = b.b_nets.(net) in
    p.p_sinks <- (cell, pin) :: p.p_sinks

  let finish b =
    let cells_arr = Array.of_list (List.rev b.b_cells) in
    let n_cells = Array.length cells_arr in
    let pending = List.init b.b_n_nets (Array.get b.b_nets) in
    let out_net_arr = Array.make n_cells (-1) in
    let in_net_arr = Array.map (fun c -> Array.make c.n_inputs (-1)) cells_arr in
    let error = ref None in
    let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
    let nets_arr =
      Array.of_list
        (List.mapi
           (fun net_id p ->
             (if p.p_driver < 0 || p.p_driver >= n_cells then
                fail "net %s: driver cell %d out of range" p.p_name p.p_driver
              else begin
                let d = cells_arr.(p.p_driver) in
                if not (Cell_kind.has_output d.kind) then
                  fail "net %s: driver %s has no output" p.p_name d.cell_name
                else if out_net_arr.(p.p_driver) <> -1 then
                  fail "cell %s drives more than one net" d.cell_name
                else out_net_arr.(p.p_driver) <- net_id
              end);
             let sinks = Array.of_list (List.rev p.p_sinks) in
             Array.iter
               (fun (c, pin) ->
                 if c < 0 || c >= n_cells then fail "net %s: sink cell %d out of range" p.p_name c
                 else if pin < 0 || pin >= cells_arr.(c).n_inputs then
                   fail "net %s: pin %d out of range on cell %s" p.p_name pin
                     cells_arr.(c).cell_name
                 else if in_net_arr.(c).(pin) <> -1 then
                   fail "cell %s input pin %d connected twice" cells_arr.(c).cell_name pin
                 else in_net_arr.(c).(pin) <- net_id)
               sinks;
             { net_id; net_name = p.p_name; driver = p.p_driver; sinks })
           pending)
    in
    Array.iter
      (fun c ->
        Array.iteri
          (fun pin n ->
            if n = -1 then fail "cell %s input pin %d unconnected" c.cell_name pin)
          in_net_arr.(c.id))
      cells_arr;
    match !error with
    | Some msg -> Error msg
    | None -> Ok { cells_arr; nets_arr; out_net_arr; in_net_arr }

  let finish_exn b =
    match finish b with
    | Ok t -> t
    | Error msg -> invalid_arg ("Netlist.Builder.finish: " ^ msg)
end

let n_cells t = Array.length t.cells_arr

let n_nets t = Array.length t.nets_arr

let cell t i = t.cells_arr.(i)

let net t i = t.nets_arr.(i)

let cells t = t.cells_arr

let nets t = t.nets_arr

let out_net t i =
  let n = t.out_net_arr.(i) in
  if n = -1 then None else Some n

let in_net t c pin = t.in_net_arr.(c).(pin)

let in_nets t c = t.in_net_arr.(c)

let n_pins t c =
  let cl = t.cells_arr.(c) in
  cl.n_inputs + (if Cell_kind.has_output cl.kind then 1 else 0)

let nets_of_cell t c =
  let ins = Array.to_list t.in_net_arr.(c) in
  let all = match out_net t c with Some n -> n :: ins | None -> ins in
  List.sort_uniq compare all

let fanout_cells t c =
  match out_net t c with
  | None -> []
  | Some n ->
    let sinks = t.nets_arr.(n).sinks in
    List.sort_uniq compare (Array.to_list (Array.map fst sinks))

type counts = {
  n_input : int;
  n_output : int;
  n_comb : int;
  n_seq : int;
  total_pins : int;
}

let counts t =
  Array.fold_left
    (fun acc c ->
      let acc =
        match c.kind with
        | Cell_kind.Input -> { acc with n_input = acc.n_input + 1 }
        | Cell_kind.Output -> { acc with n_output = acc.n_output + 1 }
        | Cell_kind.Comb -> { acc with n_comb = acc.n_comb + 1 }
        | Cell_kind.Seq -> { acc with n_seq = acc.n_seq + 1 }
      in
      { acc with total_pins = acc.total_pins + n_pins t c.id })
    { n_input = 0; n_output = 0; n_comb = 0; n_seq = 0; total_pins = 0 }
    t.cells_arr

let pp_summary ppf t =
  let c = counts t in
  Format.fprintf ppf "%d cells (%d in, %d out, %d comb, %d seq), %d nets, %d pins"
    (n_cells t) c.n_input c.n_output c.n_comb c.n_seq (n_nets t) c.total_pins
