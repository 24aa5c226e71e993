(** Generic RC tree with Elmore delay evaluation [Elmore 1948].

    Nodes carry lumped capacitance; edges carry resistance. The tree is
    built undirected and oriented from the chosen root at evaluation
    time. Elmore delay to node [n] is the sum over edges on the
    root-to-[n] path of (edge resistance) x (total capacitance hanging
    below that edge) — the first moment of the impulse response, computed
    here in two linear passes. *)

type t

val create : unit -> t

val add_node : t -> cap:float -> int
(** Returns the node id (dense from 0). *)

val add_cap : t -> node:int -> cap:float -> unit
(** Add extra lumped capacitance to an existing node. *)

val add_edge : t -> int -> int -> res:float -> unit
(** Undirected resistive connection. The final graph must be a tree. *)

val elmore : t -> root:int -> float array
(** Per-node Elmore delay from [root]. Raises [Invalid_argument] if the
    graph is not a connected tree containing [root]. *)

val moments : t -> root:int -> float array * float array
(** [(m1, m2)] — the first two moments of the impulse response at every
    node (both with positive sign): [m1] is the Elmore delay; [m2] feeds
    two-moment delay metrics such as D2M. Same preconditions as
    {!elmore}. *)
