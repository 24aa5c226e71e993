module Rs = Spr_route.Route_state
module P = Spr_layout.Placement
module Arch = Spr_arch.Arch
module Nl = Spr_netlist.Netlist
module I = Spr_util.Interval

let format_version = 1

let to_string st =
  let arch = Rs.arch st in
  let place = Rs.place st in
  let nl = Rs.netlist st in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "spr-checkpoint %d\n" format_version;
  add "arch %d %d %d %d %s\n" arch.Arch.rows arch.Arch.cols arch.Arch.tracks arch.Arch.vtracks
    (Spr_arch.Segmentation.scheme_to_string arch.Arch.hscheme);
  add "design %d %d\n" (Nl.n_cells nl) (Nl.n_nets nl);
  for c = 0 to Nl.n_cells nl - 1 do
    let s = P.slot_of place c in
    add "cell %d %d %d %d\n" c s.P.row s.P.col (P.pinmap_index place c)
  done;
  for net = 0 to Nl.n_nets nl - 1 do
    (match Rs.global_route st net with
    | None -> ()
    | Some vr ->
      add "vroute %d %d %d %d %d\n" net vr.Rs.v_col vr.Rs.v_vtrack vr.Rs.v_slo vr.Rs.v_shi);
    (* Channel order, as the live list keeps it; restore claims through
       [Rs.claim_detail], which keeps that order whatever the replay order. *)
    List.iter
      (fun (ch, (hr : Rs.hroute)) ->
        add "hroute %d %d %d %d %d\n" net ch hr.Rs.h_track hr.Rs.h_slo hr.Rs.h_shi)
      (Rs.h_routes st net)
  done;
  add "end\n";
  Buffer.contents buf

(* Atomic: a crash mid-save can never leave a torn checkpoint behind. *)
let save st path = Spr_util.Persist.atomic_write path (to_string st)

type parsed = {
  mutable p_arch : (int * int * int * int * Spr_arch.Segmentation.scheme) option;
  mutable p_counts : (int * int) option;
  mutable p_cells : (int * int * int * int) list;
  mutable p_vroutes : (int * int * int * int * int) list;
  mutable p_hroutes : (int * int * int * int * int) list;
  mutable p_done : bool;
}

let parse text =
  let p =
    { p_arch = None; p_counts = None; p_cells = []; p_vroutes = []; p_hroutes = []; p_done = false }
  in
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun lineno line ->
      if !error = None && not p.p_done then begin
        let words = String.split_on_char ' ' (String.trim line) in
        match words with
        | [ "" ] | [] -> ()
        | "spr-checkpoint" :: v :: _ ->
          if int_of_string_opt v <> Some format_version then
            fail "line %d: unsupported checkpoint version %s (this loader reads version %d)"
              (lineno + 1) v format_version
        | [ "arch"; rows; cols; tracks; vtracks; scheme ] -> (
          match
            ( int_of_string_opt rows,
              int_of_string_opt cols,
              int_of_string_opt tracks,
              int_of_string_opt vtracks,
              Spr_arch.Segmentation.scheme_of_string scheme )
          with
          | Some rows, Some cols, Some tracks, Some vtracks, Some hscheme ->
            p.p_arch <- Some (rows, cols, tracks, vtracks, hscheme)
          | _ -> fail "line %d: bad arch line" (lineno + 1))
        | [ "design"; cells; nets ] -> (
          match int_of_string_opt cells, int_of_string_opt nets with
          | Some c, Some n -> p.p_counts <- Some (c, n)
          | _ -> fail "line %d: bad design line" (lineno + 1))
        | [ "cell"; a; b; c; d ] -> (
          match
            int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d
          with
          | Some a, Some b, Some c, Some d -> p.p_cells <- (a, b, c, d) :: p.p_cells
          | _ -> fail "line %d: bad cell line" (lineno + 1))
        | [ "vroute"; a; b; c; d; e ] -> (
          match
            ( int_of_string_opt a,
              int_of_string_opt b,
              int_of_string_opt c,
              int_of_string_opt d,
              int_of_string_opt e )
          with
          | Some a, Some b, Some c, Some d, Some e ->
            p.p_vroutes <- (a, b, c, d, e) :: p.p_vroutes
          | _ -> fail "line %d: bad vroute line" (lineno + 1))
        | [ "hroute"; a; b; c; d; e ] -> (
          match
            ( int_of_string_opt a,
              int_of_string_opt b,
              int_of_string_opt c,
              int_of_string_opt d,
              int_of_string_opt e )
          with
          | Some a, Some b, Some c, Some d, Some e ->
            p.p_hroutes <- (a, b, c, d, e) :: p.p_hroutes
          | _ -> fail "line %d: bad hroute line" (lineno + 1))
        | [ "end" ] -> p.p_done <- true
        | w :: _ -> fail "line %d: unknown record %s" (lineno + 1) w
      end)
    lines;
  match !error with
  | Some e -> Error e
  | None -> if p.p_done then Ok p else Error "truncated checkpoint (no end record)"

(* Replay the routing through the normal claiming path so every
   Route_state invariant is re-established (or the load fails). *)
let restore_routes st p =
  let arch = Rs.arch st in
  let j = Spr_util.Journal.create () in
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  let n_nets = Nl.n_nets (Rs.netlist st) in
  let segments_ok segs slo shi = slo >= 0 && shi < Array.length segs && slo <= shi in
  (* Global routes first: they establish the per-channel demands. Every
     index is range-checked before it reaches [Arch] or [Route_state]. *)
  List.iter
    (fun (net, col, vtrack, slo, shi) ->
      if !error = None then begin
        if net < 0 || net >= n_nets then fail "vroute: net id %d out of range" net
        else if col < 0 || col >= arch.Arch.cols then
          fail "net %d: vroute column %d out of range" net col
        else if vtrack < 0 || vtrack >= arch.Arch.vtracks then
          fail "net %d: vroute vtrack %d out of range" net vtrack
        else begin
          let segs = Arch.vsegments arch ~col ~vtrack in
          if not (segments_ok segs slo shi) then fail "net %d: vroute segment range invalid" net
          else if not (Rs.needs_global st net) then
            fail "net %d: checkpoint spine but none needed" net
          else if not (Rs.vrun_free st ~col ~vtrack ~slo ~shi) then
            fail "net %d: spine segments already taken" net
          else if Rs.global_route st net <> None then fail "net %d: duplicate vroute record" net
          else
            (* recompute the spine span from the claimed segments *)
            match P.net_channel_span (Rs.place st) net with
            | None -> fail "net %d: no pins" net
            | Some (clo, chi) ->
              let covered = I.make segs.(slo).I.lo segs.(shi).I.hi in
              if not (I.covers covered (I.make clo chi)) then
                fail "net %d: checkpoint spine does not cover the channel span" net
              else
                Rs.claim_global st j net
                  { Rs.v_col = col; v_vtrack = vtrack; v_slo = slo; v_shi = shi;
                    v_span = I.make clo chi }
        end
      end)
    (List.rev p.p_vroutes);
  (* Detailed routes: spans come from the freshly computed demands. *)
  List.iter
    (fun (net, channel, track, slo, shi) ->
      if !error = None then begin
        if net < 0 || net >= n_nets then fail "hroute: net id %d out of range" net
        else if channel < 0 || channel >= arch.Arch.n_channels then
          fail "net %d: hroute channel %d out of range" net channel
        else if track < 0 || track >= arch.Arch.tracks then
          fail "net %d: hroute track %d out of range" net track
        else
          match List.assoc_opt channel (Rs.h_demands st net) with
          | None -> fail "net %d: checkpoint hroute in undemanded channel %d" net channel
          | Some _ when List.mem_assoc channel (Rs.h_routes st net) ->
            fail "net %d: duplicate hroute record in channel %d" net channel
          | Some span ->
            let segs = Arch.hsegments arch ~channel ~track in
            if not (segments_ok segs slo shi) then
              fail "net %d: hroute segment range invalid" net
            else begin
              let covered = I.make segs.(slo).I.lo segs.(shi).I.hi in
              if not (I.covers covered span) then
                fail "net %d: checkpoint hroute does not cover the span in channel %d" net
                  channel
              else if not (Rs.hrun_free st ~channel ~track ~slo ~shi) then
                fail "net %d: hroute segments already taken" net
              else
                Rs.claim_detail st j net
                  { Rs.h_channel = channel; h_track = track; h_slo = slo; h_shi = shi;
                    h_span = span }
            end
      end)
    (List.rev p.p_hroutes);
  match !error with
  | Some e ->
    Spr_util.Journal.rollback j;
    Error e
  | None ->
    Spr_util.Journal.commit j;
    Ok ()

(* The fabric dimensions a layout of [cells] cells and [nets] nets can
   name, checked before [Arch.create] allocates anything: Arch's
   minimums, no more rows or columns than cells (a row or column past
   that is empty in every placement), no more tracks than nets (each
   net takes at most one track per channel) and no more vertical
   tracks than nets (one spine each) or the default five. *)
let fabric_fits ~cells ~nets ~rows ~cols ~tracks ~vtracks =
  let most = max 2 cells in
  rows >= 1 && rows <= most && cols >= 2 && cols <= most && tracks >= 1
  && tracks <= max 1 nets && vtracks >= 1 && vtracks <= max 5 nets

let of_string nl text =
  match parse text with
  | Error e -> Error e
  | Ok p -> (
    match p.p_arch, p.p_counts with
    | None, _ -> Error "checkpoint has no arch record"
    | _, None -> Error "checkpoint has no design record"
    | Some (rows, cols, tracks, vtracks, hscheme), Some (cells, nets) ->
      if cells <> Nl.n_cells nl || nets <> Nl.n_nets nl then
        Error
          (Printf.sprintf "design mismatch: checkpoint %d cells/%d nets, netlist %d/%d" cells
             nets (Nl.n_cells nl) (Nl.n_nets nl))
      else if not (fabric_fits ~cells ~nets ~rows ~cols ~tracks ~vtracks) then
        Error
          (Printf.sprintf
             "arch %dx%d with %d tracks and %d vtracks is out of range for %d cells and %d nets"
             rows cols tracks vtracks cells nets)
      else begin
        let arch = Arch.create ~rows ~cols ~tracks ~hscheme ~vtracks () in
        let slots = Array.make (Nl.n_cells nl) { P.row = -1; col = -1 } in
        let pinmaps = Array.make (Nl.n_cells nl) 0 in
        let bad = ref None in
        List.iter
          (fun (c, row, col, pm) ->
            if c < 0 || c >= Nl.n_cells nl then bad := Some (Printf.sprintf "cell id %d" c)
            else begin
              slots.(c) <- { P.row; col };
              pinmaps.(c) <- pm
            end)
          p.p_cells;
        match !bad with
        | Some e -> Error ("bad cell record: " ^ e)
        | None -> (
          if Array.exists (fun s -> s.P.row < 0) slots then
            Error "checkpoint is missing cell records"
          else
            match P.create_from arch nl ~slots ~pinmaps with
            | Error e -> Error e
            | Ok place -> (
              let st = Rs.create place in
              match restore_routes st p with
              | Error e -> Error e
              | Ok () -> (
                match Rs.check st with
                | Ok () -> Ok st
                | Error e -> Error ("restored state fails validation: " ^ e))))
      end)

let load nl path =
  match Spr_util.Persist.read_file path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok text -> of_string nl text

(* --- Checkpoint format v2: complete mid-run annealer state --- *)

module V2 = struct
  module Pe = Spr_util.Persist
  module E = Spr_anneal.Engine
  module W = Spr_anneal.Weights
  module St = Spr_util.Stats

  let format_version = 2

  type payload = {
    engine : E.snapshot;
    rng_state : int64;
    weights : W.dump;
    dyn_flags : bool array;
    dyn_samples : Spr_obs.Report.dyn_row list;
    accepted_since_audit : int;
    memo : Rs.memo;
    best_cost : float;
    best_layout : string;
  }

  type loaded = { data : payload; route : Rs.t; path : string; seq : int }

  let f2h = Pe.float_to_hex

  let stats_line tag (d : St.dump) =
    Printf.sprintf "stats %s %d %s %s %s %s" tag d.St.d_n (f2h d.St.d_mean) (f2h d.St.d_m2)
      (f2h d.St.d_min) (f2h d.St.d_max)

  let ints_line tag a =
    String.concat " "
      (tag :: string_of_int (Array.length a) :: (Array.to_list a |> List.map string_of_int))

  let ints2_line tag m =
    let rows = Array.length m in
    let cols = if rows = 0 then 0 else Array.length m.(0) in
    String.concat " "
      (tag :: string_of_int rows :: string_of_int cols
      :: (Array.to_list m |> List.concat_map (fun row -> Array.to_list row |> List.map string_of_int)))

  let encode_payload p ~current =
    let buf = Buffer.create 8192 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let e = p.engine in
    let c = e.E.s_config in
    add "config %d %d %s %s %s %s %s %s %d %d %d\n" c.E.moves_per_temp c.E.warmup_moves
      (f2h c.E.initial_acceptance) (f2h c.E.lambda) (f2h c.E.min_alpha) (f2h c.E.max_alpha)
      (f2h c.E.stop_acceptance) (f2h c.E.stop_cost_tolerance) c.E.stop_patience
      c.E.max_temperatures c.E.quench_temperatures;
    let phase_tag, quench_idx =
      match e.E.s_phase with E.Warmup -> ("w", 0) | E.Cool -> ("c", 0) | E.Quench q -> ("q", q)
    in
    add "engine %s %d %s %d %d %d %s %d %d %d %d %d %s\n" phase_tag quench_idx
      (f2h e.E.s_temperature) e.E.s_temp_index e.E.s_last_index e.E.s_stagnant
      (f2h e.E.s_prev_mean) e.E.s_batch_done e.E.s_batch_attempted e.E.s_batch_accepted
      e.E.s_total_moves e.E.s_total_accepted (f2h e.E.s_initial_cost);
    add "%s\n" (stats_line "batch" e.E.s_batch_samples);
    add "%s\n" (stats_line "uphill" e.E.s_uphill);
    add "rng %s\n" (Pe.int64_to_hex p.rng_state);
    add "weights %s %s %s %s\n" (f2h p.weights.W.w_g_per_net) (f2h p.weights.W.w_d_per_net)
      (f2h p.weights.W.w_t_emphasis) (f2h p.weights.W.w_t_base);
    add "%s\n" (stats_line "weights" p.weights.W.w_samples);
    add "session %d\n" p.accepted_since_audit;
    (* Failure-memoization stamps: they never change which routes are
       legal, but they gate which queued nets the retry pass attempts,
       so a resume without them picks different candidates and drifts
       off the interrupted run's trajectory. *)
    add "%s\n" (ints_line "gstamp" p.memo.Rs.m_g_stamp);
    add "%s\n" (ints2_line "dstamp" p.memo.Rs.m_d_stamp);
    add "%s\n" (ints2_line "hepoch" p.memo.Rs.m_h_epoch);
    add "%s\n" (ints_line "vepoch" p.memo.Rs.m_v_epoch);
    add "dynflags %s\n"
      (String.init (Array.length p.dyn_flags) (fun i -> if p.dyn_flags.(i) then '1' else '0'));
    add "dynsamples %d\n" (List.length p.dyn_samples);
    List.iter
      (fun (r : Spr_obs.Report.dyn_row) ->
        (* Profiled rows append a count plus that many per-phase hex
           floats; unprofiled rows keep the legacy 8-field shape, so
           pre-profiling checkpoints re-encode byte-identically. *)
        let phases =
          match r.dr_phase_seconds with
          | [] -> ""
          | ps ->
            Printf.sprintf " %d %s" (List.length ps)
              (String.concat " " (List.map (fun (_, sec) -> f2h sec) ps))
        in
        add "dynsample %d %s %s %s %s %s %s %s%s\n" r.dr_temp_index (f2h r.dr_temperature)
          (f2h r.dr_pct_cells) (f2h r.dr_pct_g_unrouted) (f2h r.dr_pct_unrouted)
          (f2h r.dr_acceptance) (f2h r.dr_cost) (f2h r.dr_delay_ns) phases)
      p.dyn_samples;
    add "best %s\n" (f2h p.best_cost);
    add "layout best %d\n" (String.length p.best_layout);
    Buffer.add_string buf p.best_layout;
    let current_text = to_string current in
    add "layout current %d\n" (String.length current_text);
    Buffer.add_string buf current_text;
    Buffer.contents buf

  let magic = "spr-checkpoint"

  let encode p ~current = Pe.frame ~magic ~version:format_version (encode_payload p ~current)

  (* Sequential cursor over the payload; every reader returns [Error]
     with a position rather than raising. *)
  type cursor = { text : string; mutable pos : int }

  let next_line cur =
    if cur.pos >= String.length cur.text then Error "unexpected end of payload"
    else begin
      match String.index_from_opt cur.text cur.pos '\n' with
      | None ->
        let line = String.sub cur.text cur.pos (String.length cur.text - cur.pos) in
        cur.pos <- String.length cur.text;
        Ok line
      | Some i ->
        let line = String.sub cur.text cur.pos (i - cur.pos) in
        cur.pos <- i + 1;
        Ok line
    end

  let take_bytes cur n =
    if n < 0 || cur.pos + n > String.length cur.text then Error "embedded block overruns payload"
    else begin
      let s = String.sub cur.text cur.pos n in
      cur.pos <- cur.pos + n;
      Ok s
    end

  let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v

  let words line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

  let int_ s = match int_of_string_opt s with Some i -> Ok i | None -> Error ("bad int " ^ s)

  let float_ s =
    match Pe.float_of_hex s with Some f -> Ok f | None -> Error ("bad float bits " ^ s)

  let expect_tag tag line f =
    match words line with
    | t :: rest when t = tag -> f rest
    | _ -> Error (Printf.sprintf "expected %s record, got %S" tag line)

  let parse_stats tag cur =
    let* line = next_line cur in
    expect_tag "stats" line (function
      | [ t; n; mean; m2; min_v; max_v ] when t = tag ->
        let* n = int_ n in
        let* d_mean = float_ mean in
        let* d_m2 = float_ m2 in
        let* d_min = float_ min_v in
        let* d_max = float_ max_v in
        Ok { St.d_n = n; d_mean; d_m2; d_min; d_max }
      | _ -> Error (Printf.sprintf "bad stats %s record" tag))

  let ints_of rest =
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | s :: tl ->
        let* i = int_ s in
        go (i :: acc) tl
    in
    go [] rest

  let parse_ints tag cur =
    let* line = next_line cur in
    expect_tag tag line (function
      | n :: rest ->
        let* n = int_ n in
        let* a = ints_of rest in
        if Array.length a <> n then Error (Printf.sprintf "bad %s record: length mismatch" tag)
        else Ok a
      | [] -> Error (Printf.sprintf "bad %s record" tag))

  let parse_ints2 tag cur =
    let* line = next_line cur in
    expect_tag tag line (function
      | rows :: cols :: rest ->
        let* rows = int_ rows in
        let* cols = int_ cols in
        let* flat = ints_of rest in
        if rows < 0 || cols < 0 || Array.length flat <> rows * cols then
          Error (Printf.sprintf "bad %s record: shape mismatch" tag)
        else Ok (Array.init rows (fun r -> Array.sub flat (r * cols) cols))
      | _ -> Error (Printf.sprintf "bad %s record" tag))

  let parse_layout tag cur =
    let* line = next_line cur in
    expect_tag "layout" line (function
      | [ t; len ] when t = tag ->
        let* len = int_ len in
        take_bytes cur len
      | _ -> Error (Printf.sprintf "bad layout %s record" tag))

  let decode_payload nl payload =
    let cur = { text = payload; pos = 0 } in
    let* config_line = next_line cur in
    let* config =
      expect_tag "config" config_line (function
        | [ mpt; wm; ia; la; mina; maxa; sa; sct; sp; mt; qt ] ->
          let* moves_per_temp = int_ mpt in
          let* warmup_moves = int_ wm in
          let* initial_acceptance = float_ ia in
          let* lambda = float_ la in
          let* min_alpha = float_ mina in
          let* max_alpha = float_ maxa in
          let* stop_acceptance = float_ sa in
          let* stop_cost_tolerance = float_ sct in
          let* stop_patience = int_ sp in
          let* max_temperatures = int_ mt in
          let* quench_temperatures = int_ qt in
          Ok
            {
              E.moves_per_temp;
              warmup_moves;
              initial_acceptance;
              lambda;
              min_alpha;
              max_alpha;
              stop_acceptance;
              stop_cost_tolerance;
              stop_patience;
              max_temperatures;
              quench_temperatures;
            }
        | _ -> Error "bad config record")
    in
    let* engine_line = next_line cur in
    let* engine0 =
      expect_tag "engine" engine_line (function
        | [ ph; q; temp; ti; li; stag; pm; bd; ba; bacc; tm; ta; ic ] ->
          let* q = int_ q in
          let* s_phase =
            match ph with
            | "w" -> Ok E.Warmup
            | "c" -> Ok E.Cool
            | "q" -> Ok (E.Quench q)
            | other -> Error ("unknown engine phase " ^ other)
          in
          let* s_temperature = float_ temp in
          let* s_temp_index = int_ ti in
          let* s_last_index = int_ li in
          let* s_stagnant = int_ stag in
          let* s_prev_mean = float_ pm in
          let* s_batch_done = int_ bd in
          let* s_batch_attempted = int_ ba in
          let* s_batch_accepted = int_ bacc in
          let* s_total_moves = int_ tm in
          let* s_total_accepted = int_ ta in
          let* s_initial_cost = float_ ic in
          Ok
            (fun s_batch_samples s_uphill ->
              {
                E.s_config = config;
                s_phase;
                s_temperature;
                s_temp_index;
                s_last_index;
                s_stagnant;
                s_prev_mean;
                s_batch_done;
                s_batch_attempted;
                s_batch_accepted;
                s_batch_samples;
                s_uphill;
                s_total_moves;
                s_total_accepted;
                s_initial_cost;
              })
        | _ -> Error "bad engine record")
    in
    let* batch_samples = parse_stats "batch" cur in
    let* uphill = parse_stats "uphill" cur in
    let engine = engine0 batch_samples uphill in
    let* rng_line = next_line cur in
    let* rng_state =
      expect_tag "rng" rng_line (function
        | [ hex ] -> (
          match Pe.int64_of_hex hex with
          | Some s -> Ok s
          | None -> Error ("bad rng state " ^ hex))
        | _ -> Error "bad rng record")
    in
    let* weights_line = next_line cur in
    let* weights0 =
      expect_tag "weights" weights_line (function
        | [ g; d; e; base ] ->
          let* w_g_per_net = float_ g in
          let* w_d_per_net = float_ d in
          let* w_t_emphasis = float_ e in
          let* w_t_base = float_ base in
          Ok (fun w_samples -> { W.w_g_per_net; w_d_per_net; w_t_emphasis; w_t_base; w_samples })
        | _ -> Error "bad weights record")
    in
    let* weights_samples = parse_stats "weights" cur in
    let weights = weights0 weights_samples in
    let* session_line = next_line cur in
    let* accepted_since_audit =
      expect_tag "session" session_line (function
        | [ n ] -> int_ n
        | _ -> Error "bad session record")
    in
    let* m_g_stamp = parse_ints "gstamp" cur in
    let* m_d_stamp = parse_ints2 "dstamp" cur in
    let* m_h_epoch = parse_ints2 "hepoch" cur in
    let* m_v_epoch = parse_ints "vepoch" cur in
    let memo = { Rs.m_g_stamp; m_d_stamp; m_h_epoch; m_v_epoch } in
    let* flags_line = next_line cur in
    let* dyn_flags =
      expect_tag "dynflags" flags_line (function
        | [] -> Ok [||]  (* zero cells *)
        | [ bits ] ->
          if String.for_all (fun c -> c = '0' || c = '1') bits then
            Ok (Array.init (String.length bits) (fun i -> bits.[i] = '1'))
          else Error "bad dynflags bits"
        | _ -> Error "bad dynflags record")
    in
    let* count_line = next_line cur in
    let* n_samples =
      expect_tag "dynsamples" count_line (function
        | [ n ] -> int_ n
        | _ -> Error "bad dynsamples record")
    in
    let rec read_samples k acc =
      if k = 0 then Ok (List.rev acc)
      else
        let* line = next_line cur in
        let* s =
          expect_tag "dynsample" line (function
            | ti :: temp :: pc :: pg :: pu :: a :: c :: cd :: rest ->
              let* dr_temp_index = int_ ti in
              let* dr_temperature = float_ temp in
              let* dr_pct_cells = float_ pc in
              let* dr_pct_g_unrouted = float_ pg in
              let* dr_pct_unrouted = float_ pu in
              let* dr_acceptance = float_ a in
              let* dr_cost = float_ c in
              let* dr_delay_ns = float_ cd in
              (* Legacy 8-field lines carry no phase data; extended lines
                 append a count then one hex float per Profile phase. *)
              let* dr_phase_seconds =
                match rest with
                | [] -> Ok []
                | n :: vals ->
                  let rec named acc = function
                    | [], [] -> Ok (List.rev acc)
                    | p :: ps, v :: vs ->
                      let* sec = float_ v in
                      named ((Profile.phase_name p, sec) :: acc) (ps, vs)
                    | _ -> Error "bad dynsample phase count"
                  in
                  let* n = int_ n in
                  if n <> Profile.n_phases then Error "bad dynsample phase count"
                  else named [] (Profile.phases, vals)
              in
              Ok
                {
                  Spr_obs.Report.dr_temp_index;
                  dr_temperature;
                  dr_pct_cells;
                  dr_pct_g_unrouted;
                  dr_pct_unrouted;
                  dr_acceptance;
                  dr_cost;
                  dr_delay_ns;
                  dr_phase_seconds;
                }
            | _ -> Error "bad dynsample record")
        in
        read_samples (k - 1) (s :: acc)
    in
    let* dyn_samples = read_samples n_samples [] in
    let* best_line = next_line cur in
    let* best_cost =
      expect_tag "best" best_line (function [ c ] -> float_ c | _ -> Error "bad best record")
    in
    let* best_layout = parse_layout "best" cur in
    let* current_text = parse_layout "current" cur in
    let* route =
      match of_string nl current_text with
      | Ok rs -> Ok rs
      | Error e -> Error ("embedded current layout: " ^ e)
    in
    let* () =
      match Rs.set_memo route memo with
      | Ok () -> Ok ()
      | Error e -> Error ("failure-memoization state: " ^ e)
    in
    Ok
      ( {
          engine;
          rng_state;
          weights;
          dyn_flags;
          dyn_samples;
          accepted_since_audit;
          memo;
          best_cost;
          best_layout;
        },
        route )

  let decode nl text =
    let* payload = Pe.unframe ~magic ~version:format_version text in
    decode_payload nl payload

  (* --- run-directory rotation --- *)

  (* A fleet of one uses plain [snap-NNNNNNNN.ckpt]; replica [k] of a
     larger fleet uses [snap-r<k>-NNNNNNNN.ckpt], so the fleet shares
     one run directory without the replicas' rotations interfering —
     and without replica files ever matching the untagged scan. *)
  let snapshot_prefix = function
    | None -> "snap-"
    | Some k -> Printf.sprintf "snap-r%d-" k

  let snapshot_path ?replica dir seq =
    Filename.concat dir (Printf.sprintf "%s%08d.ckpt" (snapshot_prefix replica) seq)

  let snapshot_files ?replica dir =
    let prefix = snapshot_prefix replica in
    let plen = String.length prefix in
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.to_list entries
      |> List.filter_map (fun name ->
             if
               String.length name = plen + 8 + 5
               && String.sub name 0 plen = prefix
               && Filename.check_suffix name ".ckpt"
             then
               match int_of_string_opt (String.sub name plen 8) with
               | Some seq -> Some (seq, Filename.concat dir name)
               | None -> None
             else None)
      |> List.sort (fun (a, _) (b, _) -> compare b a)

  let next_seq ?replica dir =
    match snapshot_files ?replica dir with [] -> 1 | (seq, _) :: _ -> seq + 1

  let write ?replica ~dir ~seq ~keep p ~current =
    Spr_util.Persist.ensure_dir dir;
    let path = snapshot_path ?replica dir seq in
    (* Durable: a rotated-away predecessor may be removed right after
       this write lands, so the rename itself must survive power loss
       or a reboot could find neither snapshot. *)
    Spr_util.Persist.atomic_write ~durable:true path (encode p ~current);
    (* Drop rotation entries beyond the newest [keep]. *)
    let keep = max 1 keep in
    List.iteri
      (fun i (_, p) -> if i >= keep then try Sys.remove p with Sys_error _ -> ())
      (snapshot_files ?replica dir);
    path

  let load_file nl path =
    match Spr_util.Persist.read_file path with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok text -> (
      match decode nl text with
      | Ok v -> Ok v
      | Error e -> Error (Printf.sprintf "%s: %s" path e))

  let load_latest ?replica nl ~dir =
    let files = snapshot_files ?replica dir in
    if files = [] then Error (Printf.sprintf "%s: no snapshots found" dir)
    else begin
      let rec try_each errs = function
        | [] ->
          Error
            (Printf.sprintf "no loadable snapshot in %s:\n%s" dir
               (String.concat "\n" (List.rev_map (fun e -> "  " ^ e) errs)))
        | (seq, path) :: rest -> (
          match load_file nl path with
          | Ok (data, route) -> Ok { data; route; path; seq }
          | Error e -> try_each (e :: errs) rest)
      in
      try_each [] files
    end
end

(* --- persisted fleet rounds (scheduler crash safety) ---
   One durable record per recorded round, written under the scheduler
   lock before any replica acts on the round, so a resumed fleet
   replays exactly the decisions the live fleet acted on. The record
   keeps its [kills 0] line, so files written while fleets could also
   kill replicas still load; a record that kills is refused. *)

module Round = struct
  module Pe = Spr_util.Persist
  module Sc = Spr_anneal.Scheduler

  let format_version = 1

  let record_path dir round = Filename.concat dir (Printf.sprintf "sched-%08d.rec" round)

  let magic = "spr-sched"

  let encode (r : Sc.round_record) =
    let b = Buffer.create (String.length r.Sc.payload + 128) in
    Printf.bprintf b "round %d %d %s\n" r.Sc.round r.Sc.leader (Pe.float_to_hex r.Sc.metric);
    Buffer.add_string b "kills 0\n";
    Printf.bprintf b "layout %d\n%s" (String.length r.Sc.payload) r.Sc.payload;
    Pe.frame ~magic ~version:format_version (Buffer.contents b)

  let ( let* ) = V2.( let* )

  let check cond msg = if cond then Ok () else Error msg

  let decode_payload payload =
    let cur = { V2.text = payload; pos = 0 } in
    let* round_line = V2.next_line cur in
    let* round, leader, metric =
      V2.expect_tag "round" round_line (function
        | [ r; l; m ] ->
          let* r = V2.int_ r in
          let* l = V2.int_ l in
          let* m = V2.float_ m in
          Ok (r, l, m)
        | _ -> Error "bad round record")
    in
    let* () = check (round >= 1) "round below 1" in
    let* () = check (leader >= 0) "negative leader" in
    let* kills_line = V2.next_line cur in
    let* () =
      V2.expect_tag "kills" kills_line (function
        | [ "0" ] -> Ok ()
        | _ -> Error "a record that kills replicas (kills must be 0)")
    in
    let* layout_line = V2.next_line cur in
    let* payload =
      V2.expect_tag "layout" layout_line (function
        | [ n ] ->
          let* n = V2.int_ n in
          V2.take_bytes cur n
        | _ -> Error "bad layout record")
    in
    let* () = check (cur.V2.pos = String.length cur.V2.text) "trailing bytes after the layout" in
    Ok { Sc.round; leader; metric; payload }

  let decode text =
    let* payload = Pe.unframe ~magic ~version:format_version text in
    decode_payload payload

  let write ~dir (r : Sc.round_record) =
    Spr_util.Persist.ensure_dir dir;
    let path = record_path dir r.Sc.round in
    (* Durable for the same reason as snapshots: replicas act on the
       round as soon as this returns, so a lost rename would leave the
       resumed fleet without a round the live fleet already acted on. *)
    Spr_util.Persist.atomic_write ~durable:true path (encode r);
    path

  let load_all ~dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.to_list entries
      |> List.filter_map (fun name ->
             if
               String.length name = 6 + 8 + 4
               && String.sub name 0 6 = "sched-"
               && Filename.check_suffix name ".rec"
             then
               match Pe.read_file (Filename.concat dir name) with
               | Error _ -> None
               | Ok text -> (
                 (* A torn or corrupted record is simply skipped: the
                    resumed round re-trips live with full participation,
                    which is exactly what an unrecorded round means. *)
                 match decode text with Ok r -> Some r | Error _ -> None)
             else None)
      |> List.sort (fun a b -> compare a.Sc.round b.Sc.round)
end
