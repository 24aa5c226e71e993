let run_all ?sta rs =
  let place_findings = Place_audit.run (Spr_route.Route_state.place rs) in
  let route_findings = Route_audit.run rs in
  let sta_findings =
    match sta with None -> [] | Some sta -> Sta_audit.run sta rs
  in
  place_findings @ route_findings @ sta_findings

let result = function
  | [] -> Ok ()
  | fs -> Error (Finding.summarize fs)
