module I = Spr_util.Interval
module J = Spr_util.Journal
module Q = Spr_util.Iqueue

type hroute = {
  h_channel : int;
  h_track : int;
  h_slo : int;
  h_shi : int;
  h_span : I.t;
}

type vroute = {
  v_col : int;
  v_vtrack : int;
  v_slo : int;
  v_shi : int;
  v_span : I.t;
}

(* Per-net routing status. [in_ug]/[missing] mirror the queue tables and
   the [d_flag] mirrors the net's contribution to the D count; the
   mirrors exist so every transition is O(1) and undoable. *)
type nstat = {
  mutable needs_v : bool;
  mutable vr : vroute option;
  mutable demands : (int * I.t) list;
  mutable hroutes : (int * hroute) list;
  mutable in_ug : bool;
  mutable missing : int list;
  mutable d_flag : bool;
}

type t = {
  place : Spr_layout.Placement.t;
  arch : Spr_arch.Arch.t;
  nl : Spr_netlist.Netlist.t;
  h_owner : int array array array;  (* channel -> track -> seg -> net / -1 *)
  v_owner : int array array array;  (* col -> vtrack -> seg -> net / -1 *)
  nstats : nstat array;
  ug : Q.t;  (* U_G retry queue, keyed by estimated length (half-perimeter) *)
  ud : Q.t array;  (* per channel U_D,R queues, keyed by demand span length *)
  dirty : Spr_util.Bitset.t;  (* nets touched since the last [clear_dirty] *)
  routable : bool array;  (* >= 2 terminals, fixed by the netlist *)
  n_routable : int;
  mutable d_total : int;
  (* Failure memoization (not journaled; see the interface): free-epochs
     advance whenever resources are released in a column bucket, stamps
     record the relevant epoch maximum at a net's last failed attempt.
     Stamp -1 forces an attempt. *)
  h_epoch : int array array;  (* per channel, per column bucket *)
  v_epoch : int array;  (* per column bucket *)
  g_stamp : int array;  (* per net *)
  d_stamp : int array array;  (* per net, per channel *)
  (* Retry index over the memo (see the interface): which queued nets
     the gate must test. *)
  ug_index : index;
  ud_index : index array;  (* per channel *)
  seen : Bytes.t;  (* per net; all zero between [park] calls *)
}

(* One queue's retry index. [cand] holds a byte per net: set while the
   gate must test the net. A net whose byte is clear waits in [parked],
   a segment tree over the column buckets (node 1 is the root, node
   [leaves + b] is bucket b's leaf), on the nodes that exactly cover the
   bucket range its predicate reads. Node [n] holds its first [fill.(n)]
   entries. *)
and index = {
  cand : Bytes.t;
  leaves : int;
  parked : int array array;
  fill : int array;
}

let bucket_width = 8

let bucket col = col / bucket_width

let n_buckets cols = ((cols - 1) / bucket_width) + 1

let place t = t.place

let arch t = t.arch

let netlist t = t.nl

let g_count t = Q.length t.ug

let d_count t = t.d_total

let n_routable t = t.n_routable

let fully_routed t = t.d_total = 0

let needs_global t net = t.nstats.(net).needs_v

let global_route t net = t.nstats.(net).vr

let h_demands t net = t.nstats.(net).demands

let h_routes t net = t.nstats.(net).hroutes

let routable t net = t.routable.(net)

let in_ug_flag t net = t.nstats.(net).in_ug

let missing_channels t net = t.nstats.(net).missing

let d_flag t net = t.nstats.(net).d_flag

let is_fully_routed t net =
  let ns = t.nstats.(net) in
  t.routable.(net) && not ns.in_ug && ns.missing = [] && ns.demands <> []

(* Queue enumeration is the paper's explicit retry order (§3.3/§3.4):
   estimated length descending, net id descending on ties — never a
   hash-table artifact. *)
let u_g t = Q.to_list t.ug

let u_d t channel = Q.to_list t.ud.(channel)

let dirty_nets t = Spr_util.Bitset.to_list t.dirty

let clear_dirty t = Spr_util.Bitset.clear t.dirty

let mark_dirty t net = ignore (Spr_util.Bitset.add t.dirty net)

let hseg_owner t ~channel ~track ~seg = t.h_owner.(channel).(track).(seg)

let vseg_owner t ~col ~vtrack ~seg = t.v_owner.(col).(vtrack).(seg)

let hrun_free t ~channel ~track ~slo ~shi =
  let arr = t.h_owner.(channel).(track) in
  let rec loop i = i > shi || (arr.(i) = -1 && loop (i + 1)) in
  loop slo

let vrun_free t ~col ~vtrack ~slo ~shi =
  let arr = t.v_owner.(col).(vtrack) in
  let rec loop i = i > shi || (arr.(i) = -1 && loop (i + 1)) in
  loop slo

(* --- retry index --- *)

let index_create ~n_nets ~n_buckets =
  let leaves = ref 1 in
  while !leaves < n_buckets do
    leaves := 2 * !leaves
  done;
  {
    cand = Bytes.make n_nets '\000';
    leaves = !leaves;
    parked = Array.make (2 * !leaves) [||];
    fill = Array.make (2 * !leaves) 0;
  }

let is_candidate idx net = Bytes.get idx.cand net <> '\000'

(* Marks are not journaled: a spare candidate costs one predicate test.
   Nor are clears (see [retire]). *)
let mark idx net = Bytes.set idx.cand net '\001'

(* Append [net] to a node. A full node first drops the entries no longer
   needed — candidates, repeats and [net]'s own — and grows only when
   that frees less than half of it, so a node never holds more than
   twice the nets it parks. *)
let push t idx node net =
  let entries = idx.parked.(node) in
  let n = idx.fill.(node) in
  if n < Array.length entries then begin
    entries.(n) <- net;
    idx.fill.(node) <- n + 1
  end
  else begin
    Bytes.set t.seen net '\001';
    let kept = ref 0 in
    for i = 0 to n - 1 do
      let m = entries.(i) in
      if (not (is_candidate idx m)) && Bytes.get t.seen m = '\000' then begin
        Bytes.set t.seen m '\001';
        entries.(!kept) <- m;
        incr kept
      end
    done;
    for i = 0 to !kept - 1 do
      Bytes.set t.seen entries.(i) '\000'
    done;
    Bytes.set t.seen net '\000';
    let entries =
      if 2 * (!kept + 1) <= Array.length entries then entries
      else begin
        let grown = Array.make (max 4 (2 * Array.length entries)) 0 in
        Array.blit entries 0 grown 0 !kept;
        idx.parked.(node) <- grown;
        grown
      end
    in
    entries.(!kept) <- net;
    idx.fill.(node) <- !kept + 1
  end

(* Park on the nodes that exactly cover buckets [blo, bhi]: every range
   holding bucket b has one of them on b's leaf-to-root path. *)
let park t idx net blo bhi =
  let lo = ref (idx.leaves + blo) and hi = ref (idx.leaves + bhi + 1) in
  while !lo < !hi do
    if !lo land 1 = 1 then begin
      push t idx !lo net;
      incr lo
    end;
    if !hi land 1 = 1 then begin
      decr hi;
      push t idx !hi net
    end;
    lo := !lo lsr 1;
    hi := !hi lsr 1
  done

(* An epoch bump over buckets [blo, bhi] marks every net parked on a
   node that meets the range: the range's leaves and their ancestors,
   level by level. Entries left on other nodes go stale, harmlessly. *)
let wake idx blo bhi =
  let lo = ref (idx.leaves + blo) and hi = ref (idx.leaves + bhi) in
  while !lo >= 1 do
    for node = !lo to !hi do
      let entries = idx.parked.(node) in
      for i = 0 to idx.fill.(node) - 1 do
        mark idx entries.(i)
      done;
      idx.fill.(node) <- 0
    done;
    lo := !lo lsr 1;
    hi := !hi lsr 1
  done

let mark_row t net =
  mark t.ug_index net;
  Array.iter (fun idx -> mark idx net) t.ud_index

(* --- journaled primitive mutations --- *)

let set_owner j arr seg v =
  let old = arr.(seg) in
  arr.(seg) <- v;
  J.record j (fun () -> arr.(seg) <- old)

let set_d_flag t j ns flag =
  if ns.d_flag <> flag then begin
    let old = ns.d_flag in
    ns.d_flag <- flag;
    t.d_total <- t.d_total + (if flag then 1 else -1);
    J.record j (fun () ->
        ns.d_flag <- old;
        t.d_total <- t.d_total + (if flag then -1 else 1))
  end

let refresh_d t j ns = set_d_flag t j ns (ns.in_ug || ns.missing <> [])

(* Enqueueing always (re)keys by the net's current estimated length, so
   even a net already queued whose pins just moved ends up at its proper
   retry rank. *)
let set_in_ug t j net flag =
  let ns = t.nstats.(net) in
  if flag then begin
    if not ns.in_ug then begin
      ns.in_ug <- true;
      J.record j (fun () -> ns.in_ug <- false)
    end;
    Q.add ~j t.ug net ~key:(Spr_layout.Placement.half_perimeter t.place net)
  end
  else if ns.in_ug then begin
    ns.in_ug <- false;
    J.record j (fun () -> ns.in_ug <- true);
    ignore (Q.remove ~j t.ug net)
  end

let set_vr j ns vr =
  let old = ns.vr in
  ns.vr <- vr;
  J.record j (fun () -> ns.vr <- old)

let set_needs_v j ns v =
  if ns.needs_v <> v then begin
    let old = ns.needs_v in
    ns.needs_v <- v;
    J.record j (fun () -> ns.needs_v <- old)
  end

(* A net's retry predicates read the buckets of its demand spans and,
   for U_G, of its pin columns, and pins move only together with a
   rip-up, which sets the demands. So undoing [set_demands] is what
   restores those ranges, and a stamp taken over other ranges since may
   leave the net pending there: the undo marks the net in every queue. *)
let set_demands t j net demands =
  let ns = t.nstats.(net) in
  let old = ns.demands in
  ns.demands <- demands;
  J.record j (fun () ->
      ns.demands <- old;
      mark_row t net)

let set_hroutes j ns hroutes =
  let old = ns.hroutes in
  ns.hroutes <- hroutes;
  J.record j (fun () -> ns.hroutes <- old)

let set_missing t j net missing =
  let ns = t.nstats.(net) in
  let old = ns.missing in
  ns.missing <- missing;
  J.record j (fun () -> ns.missing <- old);
  List.iter
    (fun ch -> if not (List.mem ch missing) then ignore (Q.remove ~j t.ud.(ch) net))
    old;
  (* Unconditional add: re-keys a still-queued channel whose demand span
     changed, so queue rank always reflects the current demand. *)
  List.iter
    (fun ch ->
      let key =
        match List.assoc_opt ch ns.demands with Some span -> I.length span | None -> 0
      in
      Q.add ~j t.ud.(ch) net ~key)
    missing

(* --- demand computation from the current placement --- *)

(* Group the net's pins by channel into per-channel column spans; when a
   spine column is chosen, every span must also reach the spine. *)
let channel_spans pins spine_col =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (ch, col) ->
      match Hashtbl.find_opt tbl ch with
      | None -> Hashtbl.replace tbl ch (col, col)
      | Some (lo, hi) -> Hashtbl.replace tbl ch (min lo col, max hi col))
    pins;
  let spans = Hashtbl.fold (fun ch (lo, hi) acc -> (ch, lo, hi) :: acc) tbl [] in
  let spans = List.sort compare spans in
  List.map
    (fun (ch, lo, hi) ->
      match spine_col with
      | None -> (ch, I.make lo hi)
      | Some x -> (ch, I.make (min lo x) (max hi x)))
    spans

let distinct_channels pins = List.sort_uniq compare (List.map fst pins)

(* --- segment claiming --- *)

let free_route_segments t j net =
  let ns = t.nstats.(net) in
  (match ns.vr with
  | None -> ()
  | Some vr ->
    let arr = t.v_owner.(vr.v_col).(vr.v_vtrack) in
    for s = vr.v_slo to vr.v_shi do
      assert (arr.(s) = net);
      set_owner j arr s (-1)
    done;
    let b = bucket vr.v_col in
    t.v_epoch.(b) <- t.v_epoch.(b) + 1;
    wake t.ug_index b b);
  List.iter
    (fun (_, hr) ->
      let ch = hr.h_channel in
      let arr = t.h_owner.(ch).(hr.h_track) in
      for s = hr.h_slo to hr.h_shi do
        assert (arr.(s) = net);
        set_owner j arr s (-1)
      done;
      let segs = t.arch.Spr_arch.Arch.hsegs.(ch).(hr.h_track) in
      let blo = bucket segs.(hr.h_slo).I.lo and bhi = bucket segs.(hr.h_shi).I.hi in
      for b = blo to bhi do
        t.h_epoch.(ch).(b) <- t.h_epoch.(ch).(b) + 1
      done;
      wake t.ud_index.(ch) blo bhi)
    ns.hroutes

let max_epoch epochs blo bhi =
  let top = Array.length epochs - 1 in
  let blo = max 0 blo and bhi = min top bhi in
  let m = ref 0 in
  for b = blo to bhi do
    if epochs.(b) > !m then m := epochs.(b)
  done;
  !m

(* The spine search window: pin column bbox with a generous margin (an
   over-approximation of any router margin up to 4 is fine — too-wide
   windows only cost redundant attempts, never missed ones), clipped to
   the fabric's buckets. *)
let global_window t net =
  let pins = Spr_layout.Placement.net_pin_positions t.place net in
  let cols = List.map snd pins in
  let xlo = List.fold_left min max_int cols and xhi = List.fold_left max min_int cols in
  (max 0 (bucket (xlo - 16)), min (Array.length t.v_epoch - 1) (bucket (xhi + 16)))

let demand_span t net channel = List.assoc_opt channel t.nstats.(net).demands

let detail_window span = (bucket span.I.lo, bucket span.I.hi)

let global_attempt_pending t net =
  t.g_stamp.(net) = -1
  ||
  let blo, bhi = global_window t net in
  t.g_stamp.(net) < max_epoch t.v_epoch blo bhi

let detail_attempt_pending t net ~channel =
  t.d_stamp.(net).(channel) = -1
  ||
  match demand_span t net channel with
  | None -> false
  | Some span ->
    let blo, bhi = detail_window span in
    t.d_stamp.(net).(channel) < max_epoch t.h_epoch.(channel) blo bhi

(* --- the gate's side of the index --- *)

(* Take a net that is not pending out of the candidates, parked on the
   bucket range its predicate reads. The clear holds until an epoch
   there advances, which wakes the net, or its demands change: a rip-up
   marks the net, [claim_global] queues it only where it is a candidate
   already, and the undo in [set_demands] marks it. *)
let retire t idx net (blo, bhi) =
  Bytes.set idx.cand net '\000';
  park t idx net blo bhi

type queue = Ug | Ud of int

let queue_of t = function Ug -> t.ug | Ud channel -> t.ud.(channel)

let index_of t = function Ug -> t.ug_index | Ud channel -> t.ud_index.(channel)

let queue_length t q = Q.length (queue_of t q)

let queue_nth t q i = Q.nth (queue_of t q) i

let candidate t q net = is_candidate (index_of t q) net

let drop_candidate t q net =
  match q with
  | Ug -> retire t t.ug_index net (global_window t net)
  | Ud channel -> (
    match demand_span t net channel with
    | None -> ()
    | Some span -> retire t t.ud_index.(channel) net (detail_window span))

let note_global_failure t net =
  let ((blo, bhi) as window) = global_window t net in
  t.g_stamp.(net) <- max_epoch t.v_epoch blo bhi;
  retire t t.ug_index net window

let note_detail_failure t net ~channel =
  match demand_span t net channel with
  | None -> ()
  | Some span ->
    let ((blo, bhi) as window) = detail_window span in
    t.d_stamp.(net).(channel) <- max_epoch t.h_epoch.(channel) blo bhi;
    retire t t.ud_index.(channel) net window

(* A stamp reset makes the net pending, so it marks the net in every
   queue. *)
let reset_stamps t net =
  t.g_stamp.(net) <- -1;
  Array.fill t.d_stamp.(net) 0 (Array.length t.d_stamp.(net)) (-1);
  mark_row t net

let force_retry = reset_stamps

(* Memoization snapshot: stamps and epochs gate which queued nets the
   router retries, so a resumed run must carry them to stay on the
   interrupted run's exact trajectory. *)
type memo = {
  m_g_stamp : int array;
  m_d_stamp : int array array;
  m_h_epoch : int array array;
  m_v_epoch : int array;
}

let memo t =
  {
    m_g_stamp = Array.copy t.g_stamp;
    m_d_stamp = Array.map Array.copy t.d_stamp;
    m_h_epoch = Array.map Array.copy t.h_epoch;
    m_v_epoch = Array.copy t.v_epoch;
  }

let set_memo t m =
  let same_shape a b = Array.length a = Array.length b in
  let same_shape2 a b =
    same_shape a b && Array.for_all2 (fun x y -> same_shape x y) a b
  in
  if
    not
      (same_shape t.g_stamp m.m_g_stamp
      && same_shape2 t.d_stamp m.m_d_stamp
      && same_shape2 t.h_epoch m.m_h_epoch
      && same_shape t.v_epoch m.m_v_epoch)
  then Error "memoization state does not match the design/fabric shape"
  else begin
    Array.blit m.m_g_stamp 0 t.g_stamp 0 (Array.length t.g_stamp);
    Array.iteri (fun i row -> Array.blit row 0 t.d_stamp.(i) 0 (Array.length row)) m.m_d_stamp;
    Array.iteri (fun i row -> Array.blit row 0 t.h_epoch.(i) 0 (Array.length row)) m.m_h_epoch;
    Array.blit m.m_v_epoch 0 t.v_epoch 0 (Array.length t.v_epoch);
    (* New stamps and epochs void the index: every net is a candidate
       again and nothing is parked. *)
    List.iter
      (fun idx ->
        Bytes.fill idx.cand 0 (Bytes.length idx.cand) '\001';
        Array.fill idx.fill 0 (Array.length idx.fill) 0)
      (t.ug_index :: Array.to_list t.ud_index);
    Ok ()
  end

(* --- public mutations --- *)

let queue_detail_demands t j net demands =
  let ns = t.nstats.(net) in
  set_demands t j net demands;
  set_missing t j net (List.map fst demands);
  refresh_d t j ns

let satisfy_trivial_global t j net =
  let ns = t.nstats.(net) in
  mark_dirty t net;
  let pins = Spr_layout.Placement.net_pin_positions t.place net in
  set_needs_v j ns false;
  set_vr j ns None;
  set_in_ug t j net false;
  queue_detail_demands t j net (channel_spans pins None)

let rip_up t j net =
  if t.routable.(net) then begin
    let ns = t.nstats.(net) in
    mark_dirty t net;
    reset_stamps t net;
    free_route_segments t j net;
    set_vr j ns None;
    set_hroutes j ns [];
    set_demands t j net [];
    set_missing t j net [];
    let pins = Spr_layout.Placement.net_pin_positions t.place net in
    match distinct_channels pins with
    | [] ->
      (* Routable nets always have a driver and a sink pin. *)
      assert false
    | [ _ ] -> satisfy_trivial_global t j net
    | _ :: _ :: _ ->
      set_needs_v j ns true;
      set_in_ug t j net true;
      refresh_d t j ns
  end

let claim_global t j net vr =
  let ns = t.nstats.(net) in
  mark_dirty t net;
  assert ns.in_ug;
  assert (vrun_free t ~col:vr.v_col ~vtrack:vr.v_vtrack ~slo:vr.v_slo ~shi:vr.v_shi);
  let arr = t.v_owner.(vr.v_col).(vr.v_vtrack) in
  for s = vr.v_slo to vr.v_shi do
    set_owner j arr s net
  done;
  set_vr j ns (Some vr);
  set_in_ug t j net false;
  (* The new demands deserve fresh detail attempts regardless of
     previously recorded failures. The net needs no mark: while it
     waited in U_G it stayed a candidate in every channel, since only a
     rip-up (or the undo of a claim) queues a net there, both mark it
     everywhere, and no channel clears it while it is out of U_D. *)
  Array.fill t.d_stamp.(net) 0 (Array.length t.d_stamp.(net)) (-1);
  let pins = Spr_layout.Placement.net_pin_positions t.place net in
  queue_detail_demands t j net (channel_spans pins (Some vr.v_col))

(* A net's runs stay sorted by channel, ascending, whatever order they
   are claimed in, so the list (and the RC tree [Net_delay] folds out of
   it) depends on the routed state alone. *)
let rec insert_by_channel ((ch, _) as run) = function
  | ((c, _) as r) :: rest when c < ch -> r :: insert_by_channel run rest
  | rest -> run :: rest

let claim_detail t j net hr =
  let ns = t.nstats.(net) in
  mark_dirty t net;
  assert (List.mem hr.h_channel ns.missing);
  assert (hrun_free t ~channel:hr.h_channel ~track:hr.h_track ~slo:hr.h_slo ~shi:hr.h_shi);
  let arr = t.h_owner.(hr.h_channel).(hr.h_track) in
  for s = hr.h_slo to hr.h_shi do
    set_owner j arr s net
  done;
  set_hroutes j ns (insert_by_channel (hr.h_channel, hr) ns.hroutes);
  set_missing t j net (List.filter (fun ch -> ch <> hr.h_channel) ns.missing);
  refresh_d t j ns

(* --- construction --- *)

let create place =
  let arch = Spr_layout.Placement.arch place in
  let nl = Spr_layout.Placement.netlist place in
  let open Spr_arch in
  let h_owner =
    Array.init arch.Arch.n_channels (fun ch ->
        Array.init arch.Arch.tracks (fun tr ->
            Array.make (Array.length arch.Arch.hsegs.(ch).(tr)) (-1)))
  in
  let v_owner =
    Array.init arch.Arch.cols (fun col ->
        Array.init arch.Arch.vtracks (fun vt ->
            Array.make (Array.length arch.Arch.vsegs.(col).(vt)) (-1)))
  in
  let n_nets = Spr_netlist.Netlist.n_nets nl in
  let routable =
    Array.init n_nets (fun n ->
        Array.length (Spr_netlist.Netlist.net nl n).Spr_netlist.Netlist.sinks >= 1)
  in
  let nstats =
    Array.init n_nets (fun _ ->
        {
          needs_v = false;
          vr = None;
          demands = [];
          hroutes = [];
          in_ug = false;
          missing = [];
          d_flag = false;
        })
  in
  let t =
    {
      place;
      arch;
      nl;
      h_owner;
      v_owner;
      nstats;
      ug = Q.create ~capacity:n_nets;
      ud = Array.init arch.Arch.n_channels (fun _ -> Q.create ~capacity:n_nets);
      dirty = Spr_util.Bitset.create ~capacity:n_nets;
      routable;
      n_routable = Array.fold_left (fun acc r -> if r then acc + 1 else acc) 0 routable;
      d_total = 0;
      h_epoch =
        Array.init arch.Arch.n_channels (fun _ -> Array.make (n_buckets arch.Arch.cols) 0);
      v_epoch = Array.make (n_buckets arch.Arch.cols) 0;
      g_stamp = Array.make n_nets (-1);
      d_stamp = Array.init n_nets (fun _ -> Array.make arch.Arch.n_channels (-1));
      ug_index = index_create ~n_nets ~n_buckets:(n_buckets arch.Arch.cols);
      ud_index =
        Array.init arch.Arch.n_channels (fun _ ->
            index_create ~n_nets ~n_buckets:(n_buckets arch.Arch.cols));
      seen = Bytes.make n_nets '\000';
    }
  in
  (* Ripping every net up resets its stamps, which marks it. *)
  let j = J.create () in
  for net = 0 to n_nets - 1 do
    rip_up t j net
  done;
  J.commit j;
  t

type embedding = {
  e_global : vroute option;
  e_hroutes : (int * hroute) list;
}

let embedding t net =
  let ns = t.nstats.(net) in
  if is_fully_routed t net then Some { e_global = ns.vr; e_hroutes = ns.hroutes } else None

(* --- validation --- *)

let check t =
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  let open Spr_arch in
  (* 1. Every owned segment is listed by its owner's route. *)
  let listed_h = Hashtbl.create 64 in
  let listed_v = Hashtbl.create 64 in
  Array.iteri
    (fun net ns ->
      (match ns.vr with
      | None -> ()
      | Some vr ->
        for s = vr.v_slo to vr.v_shi do
          Hashtbl.replace listed_v (vr.v_col, vr.v_vtrack, s) net
        done);
      List.iter
        (fun (ch, hr) ->
          if ch <> hr.h_channel then fail "net %d: hroute channel key mismatch" net;
          for s = hr.h_slo to hr.h_shi do
            Hashtbl.replace listed_h (hr.h_channel, hr.h_track, s) net
          done)
        ns.hroutes)
    t.nstats;
  Array.iteri
    (fun ch per_track ->
      Array.iteri
        (fun tr arr ->
          Array.iteri
            (fun s owner ->
              let listed = Hashtbl.find_opt listed_h (ch, tr, s) in
              match owner, listed with
              | -1, None -> ()
              | -1, Some n -> fail "h seg (%d,%d,%d) listed by net %d but free" ch tr s n
              | o, None -> fail "h seg (%d,%d,%d) owned by %d but unlisted" ch tr s o
              | o, Some n -> if o <> n then fail "h seg (%d,%d,%d) owner %d vs listed %d" ch tr s o n)
            arr)
        per_track)
    t.h_owner;
  Array.iteri
    (fun col per_vt ->
      Array.iteri
        (fun vt arr ->
          Array.iteri
            (fun s owner ->
              let listed = Hashtbl.find_opt listed_v (col, vt, s) in
              match owner, listed with
              | -1, None -> ()
              | -1, Some n -> fail "v seg (%d,%d,%d) listed by net %d but free" col vt s n
              | o, None -> fail "v seg (%d,%d,%d) owned by %d but unlisted" col vt s o
              | o, Some n -> if o <> n then fail "v seg (%d,%d,%d) owner %d vs listed %d" col vt s o n)
            arr)
        per_vt)
    t.v_owner;
  (* 2. Per-net structural invariants against the current placement. *)
  let d_expected = ref 0 in
  Array.iteri
    (fun net ns ->
      if not t.routable.(net) then begin
        if ns.in_ug || ns.missing <> [] || ns.vr <> None || ns.hroutes <> [] then
          fail "unroutable net %d has routing state" net
      end
      else begin
        let pins = Spr_layout.Placement.net_pin_positions t.place net in
        let chans = distinct_channels pins in
        let needs_v = List.length chans > 1 in
        if ns.needs_v <> needs_v then fail "net %d: needs_v stale" net;
        if ns.in_ug <> (needs_v && ns.vr = None) then fail "net %d: in_ug inconsistent" net;
        if Q.mem t.ug net <> ns.in_ug then fail "net %d: ug queue mismatch" net;
        if
          ns.in_ug
          && Q.key t.ug net <> Spr_layout.Placement.half_perimeter t.place net
        then fail "net %d: ug retry key stale" net;
        if
          Q.mem t.ug net && global_attempt_pending t net
          && not (is_candidate t.ug_index net)
        then fail "net %d: pending in U_G but not a retry candidate" net;
        if ns.in_ug && (ns.demands <> [] || ns.hroutes <> [] || ns.missing <> []) then
          fail "net %d: globally unrouted but has detail state" net;
        if not ns.in_ug then begin
          let spine = Option.map (fun vr -> vr.v_col) ns.vr in
          let expect = channel_spans pins spine in
          if expect <> List.sort compare ns.demands then fail "net %d: demands stale" net;
          (match ns.vr with
          | None -> if needs_v then fail "net %d: needs spine but has none" net
          | Some vr ->
            let lo = List.fold_left min max_int chans
            and hi = List.fold_left max min_int chans in
            if not (I.covers vr.v_span (I.make lo hi)) then
              fail "net %d: spine does not cover channel span" net;
            let segs = Arch.vsegments t.arch ~col:vr.v_col ~vtrack:vr.v_vtrack in
            let covered = I.make segs.(vr.v_slo).I.lo segs.(vr.v_shi).I.hi in
            if not (I.covers covered vr.v_span) then fail "net %d: vroute gap" net);
          (* Each demand is either routed or queued, never both. *)
          List.iter
            (fun (ch, span) ->
              let routed = List.mem_assoc ch ns.hroutes in
              let queued = List.mem ch ns.missing in
              if routed && queued then fail "net %d ch %d: routed and queued" net ch;
              if (not routed) && not queued then fail "net %d ch %d: demand dropped" net ch;
              if queued then begin
                if not (Q.mem t.ud.(ch) net) then
                  fail "net %d ch %d: missing from ud queue" net ch
                else if Q.key t.ud.(ch) net <> I.length span then
                  fail "net %d ch %d: ud retry key stale" net ch
                else if
                  detail_attempt_pending t net ~channel:ch
                  && not (is_candidate t.ud_index.(ch) net)
                then fail "net %d ch %d: pending but not a retry candidate" net ch
              end;
              match List.assoc_opt ch ns.hroutes with
              | None -> ()
              | Some hr ->
                if hr.h_span <> span then fail "net %d ch %d: hroute span stale" net ch;
                let segs = Arch.hsegments t.arch ~channel:ch ~track:hr.h_track in
                let covered = I.make segs.(hr.h_slo).I.lo segs.(hr.h_shi).I.hi in
                if not (I.covers covered span) then fail "net %d ch %d: hroute gap" net ch)
            ns.demands;
          List.iter
            (fun (ch, _) ->
              if not (List.mem_assoc ch ns.demands) then
                fail "net %d: hroute in undemanded channel %d" net ch)
            ns.hroutes
        end;
        let d_flag = ns.in_ug || ns.missing <> [] in
        if ns.d_flag <> d_flag then fail "net %d: d_flag stale" net;
        if d_flag then incr d_expected
      end)
    t.nstats;
  if t.d_total <> !d_expected then fail "d_total %d but expected %d" t.d_total !d_expected;
  Array.iteri
    (fun ch q ->
      (match Q.check q with
      | Error e -> fail "ud queue ch %d: %s" ch e
      | Ok () -> ());
      Q.iter
        (fun net ->
          if not (List.mem ch t.nstats.(net).missing) then
            fail "ud queue ch %d lists net %d not missing there" ch net)
        q)
    t.ud;
  (match Q.check t.ug with
  | Error e -> fail "ug queue: %s" e
  | Ok () -> ());
  (match Spr_util.Bitset.check t.dirty with
  | Error e -> fail "dirty set: %s" e
  | Ok () -> ());
  match !error with Some e -> Error e | None -> Ok ()

module Debug = struct
  let flip_d_flag t net =
    let ns = t.nstats.(net) in
    ns.d_flag <- not ns.d_flag

  let flip_in_ug_flag t net =
    let ns = t.nstats.(net) in
    ns.in_ug <- not ns.in_ug

  let clear_missing t net = t.nstats.(net).missing <- []

  let set_hseg_owner t ~channel ~track ~seg owner = t.h_owner.(channel).(track).(seg) <- owner

  let bump_d_total t delta = t.d_total <- t.d_total + delta

  let clear_candidate t net =
    let ns = t.nstats.(net) in
    let idx =
      match ns.missing with
      | channel :: _ when not ns.in_ug -> t.ud_index.(channel)
      | _ -> t.ug_index
    in
    Bytes.set idx.cand net '\000'
end

let snapshot t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Array.iteri
    (fun ch per_track ->
      Array.iteri
        (fun tr arr ->
          Array.iteri (fun s o -> if o <> -1 then add "h %d %d %d = %d\n" ch tr s o) arr)
        per_track)
    t.h_owner;
  Array.iteri
    (fun col per_vt ->
      Array.iteri
        (fun vt arr ->
          Array.iteri (fun s o -> if o <> -1 then add "v %d %d %d = %d\n" col vt s o) arr)
        per_vt)
    t.v_owner;
  Array.iteri
    (fun net ns ->
      add "net %d: needs_v=%b in_ug=%b d_flag=%b\n" net ns.needs_v ns.in_ug ns.d_flag;
      (match ns.vr with
      | None -> ()
      | Some vr -> add "  vr col=%d vt=%d [%d..%d]\n" vr.v_col vr.v_vtrack vr.v_slo vr.v_shi);
      List.iter
        (fun (ch, span) -> add "  demand ch=%d %s\n" ch (I.to_string span))
        (List.sort compare ns.demands);
      List.iter
        (fun (ch, hr) ->
          add "  hr ch=%d tr=%d [%d..%d] %s\n" ch hr.h_track hr.h_slo hr.h_shi
            (I.to_string hr.h_span))
        (List.sort compare ns.hroutes);
      List.iter (fun ch -> add "  missing ch=%d\n" ch) (List.sort compare ns.missing))
    t.nstats;
  add "g=%d d=%d\n" (g_count t) (d_count t);
  Buffer.contents buf
