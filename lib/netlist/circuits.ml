type spec = {
  spec_name : string;
  spec_cells : int;
  spec_seed : int;
}

let table_specs =
  [
    { spec_name = "s1"; spec_cells = 181; spec_seed = 0x511 };
    { spec_name = "cse"; spec_cells = 156; spec_seed = 0xC5E };
    { spec_name = "ex1"; spec_cells = 227; spec_seed = 0xE11 };
    { spec_name = "bw"; spec_cells = 158; spec_seed = 0xB10 };
    { spec_name = "s1a"; spec_cells = 163; spec_seed = 0x51A };
  ]

let big529 = { spec_name = "big529"; spec_cells = 529; spec_seed = 0x529 }

let all = table_specs @ [ big529 ]

let find name = List.find_opt (fun s -> s.spec_name = name) all

let make spec =
  let params = Generator.default ~n_cells:spec.spec_cells in
  Generator.generate params ~seed:spec.spec_seed

let make_by_name name =
  match find name with
  | Some spec -> make spec
  | None -> raise Not_found
