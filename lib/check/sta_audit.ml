module Rs = Spr_route.Route_state
module Nl = Spr_netlist.Netlist
module Kind = Spr_netlist.Cell_kind
module Sta = Spr_timing.Sta
module Dm = Spr_timing.Delay_model

(* Tolerance, in ns, on arrivals and the critical delay. *)
let eps = 1e-6

let run sta rs =
  let nl = Rs.netlist rs in
  let dm = Sta.delay_model sta in
  let findings = ref [] in
  let report ~subject fmt =
    Printf.ksprintf
      (fun detail -> findings := { Finding.auditor = "sta"; subject; detail } :: !findings)
      fmt
  in
  match Spr_netlist.Levelize.run nl with
  | Error e ->
    [ { Finding.auditor = "sta"; subject = "netlist"; detail = "not levelizable: " ^ e } ]
  | Ok lev ->
    let n_cells = Nl.n_cells nl in
    let net_delays =
      Array.init (Nl.n_nets nl) (fun net -> Spr_timing.Net_delay.sink_delays dm rs net)
    in
    let sink_delay_of cell pin net =
      let sinks = (Nl.net nl net).Nl.sinks in
      let rec find i =
        if i >= Array.length sinks then None
        else if sinks.(i) = (cell, pin) then Some net_delays.(net).(i)
        else find (i + 1)
      in
      find 0
    in
    let arr = Array.make n_cells 0.0 in
    let is_source c =
      let cell = Nl.cell nl c in
      Kind.is_timing_source cell.Nl.kind || cell.Nl.n_inputs = 0
    in
    let arrival_in c =
      let worst = ref 0.0 in
      Array.iteri
        (fun pin net ->
          let d = (Nl.net nl net).Nl.driver in
          match sink_delay_of c pin net with
          | None ->
            report ~subject:(Printf.sprintf "cell %d" c)
              "input pin %d absent from the sinks of net %d" pin net
          | Some dly ->
            let a = arr.(d) +. dly in
            if a > !worst then worst := a)
        (Nl.in_nets nl c);
      !worst
    in
    (* Oracle pass: arrivals in level order, exactly the paper's §3.5
       levelized propagation but with no incrementality at all. *)
    Array.iter
      (fun c ->
        let kind = (Nl.cell nl c).Nl.kind in
        if Kind.has_output kind then
          arr.(c) <-
            (if is_source c then Dm.intrinsic dm kind
             else arrival_in c +. Dm.intrinsic dm kind))
      lev.Spr_netlist.Levelize.order;
    (* Diff per-cell output arrivals. *)
    for c = 0 to n_cells - 1 do
      if Kind.has_output (Nl.cell nl c).Nl.kind then begin
        let inc = Sta.arrival_out sta c in
        if Float.abs (inc -. arr.(c)) > eps then
          report ~subject:(Printf.sprintf "cell %d" c)
            "incremental arrival %.9f ns, oracle %.9f ns" inc arr.(c)
      end
    done;
    (* Diff the critical delay over the timing sinks. *)
    let crit_oracle =
      Array.fold_left
        (fun acc c -> Float.max acc (arrival_in c))
        0.0 (Sta.timing_sinks sta)
    in
    let crit_inc = Sta.critical_delay sta in
    if Float.abs (crit_inc -. crit_oracle) > eps then
      report ~subject:"critical delay" "incremental %.9f ns, oracle %.9f ns" crit_inc
        crit_oracle;
    List.rev !findings
