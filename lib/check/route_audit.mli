(** Full-state routing auditor: the from-scratch oracle for the
    incremental {!Spr_route.Route_state} bookkeeping.

    Every annealing move is evaluated through O(1) mirrors ([in_ug],
    [missing], [d_flag], the U{_G}/U{_D,R} tables and the G/D counters) —
    one stale mirror silently corrupts every subsequent cost decision.
    This auditor recomputes the whole picture from first principles
    (the segment owner arrays, the recorded per-net routes, and the
    current placement's pin positions) and diffs it against the mirrors.
    The free-epoch stamps themselves are not audited: they memoize
    failures, and a stale stamp only costs a redundant attempt. The
    retry index over them is: a queued net whose stamp leaves its
    attempt pending but that the index does not hold would never be
    retried.

    Checks performed:
    - segment ownership is conflict-free and agrees, in both directions,
      with the routes recorded per net;
    - every recorded route fits its channel/track segmentation (indices
      in range, claimed runs contiguous, covered span covers the demand);
    - per-net demands equal an independent recomputation from the current
      pin positions and spine column;
    - the [needs_v]/[in_ug]/[missing]/[d_flag] mirrors, both queue
      tables, and the G/D counters all match the recomputation;
    - every queued net whose attempt is pending is a retry candidate of
      its queue. *)

val run : Spr_route.Route_state.t -> Finding.t list
(** Empty when the routing state is sound. O(fabric + nets). *)
