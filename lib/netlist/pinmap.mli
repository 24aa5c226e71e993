(** Cell pin assignments.

    A row-based FPGA logic module can realize the same function under
    several different assignments of logical pins to physical pin
    positions; the paper calls these {i pinmaps} and makes pinmap
    reassignment an annealing move. In this fabric model a physical pin
    position is a side: the channel above ([Top]) or below ([Bottom]) the
    cell's row, at the cell's column.

    Pin indexing convention (shared with {!Netlist}): a cell with [k]
    input pins uses pin indices [0 .. k-1] for inputs and, when it has an
    output, pin index [k] for the output. *)

type side = Top | Bottom

type t = side array
(** One side per pin, indexed by pin index. *)

val side_equal : side -> side -> bool

val palette : n_pins:int -> t array
(** Compile-time palette of legal pinmaps for a cell with [n_pins] pins
    (paper §3.2: "a manageable palette of pinmap alternatives").
    Always non-empty; entry 0 is the default (all pins [Bottom]). The
    palette contains up to four distinct alternatives: all-bottom,
    all-top, and the two alternating assignments. Duplicates that arise
    for small [n_pins] are removed. *)

val copy : t -> t

val equal : t -> t -> bool
