(** Seeded synthetic netlist generator.

    Produces random mapped circuits with the gross statistics of the
    MCNC benchmarks used in the paper (Tables 1 and 2): a given total cell
    count, small primary-I/O and flip-flop fractions, fanin 1-4 with mean
    near 2.7, locality-biased connectivity (a cell mostly consumes
    recently created signals, giving realistic path depth), flip-flop
    feedback loops, and no combinational cycles. Equal parameters and
    seeds produce identical netlists. *)

type params = {
  n_cells : int;  (** Total cells including I/O pads. *)
  pi_frac : float;  (** Fraction of cells that are primary inputs. *)
  po_frac : float;  (** Fraction that are primary outputs. *)
  seq_frac : float;  (** Fraction that are flip-flops. *)
  max_fanin : int;  (** Upper bound on combinational fanin (>= 1). *)
  locality : float;  (** Probability a fanin comes from the recent window. *)
  window : int;  (** Size of the recent-signal window. *)
  feedback : float;  (** Probability a flip-flop output feeds back. *)
}

val default : n_cells:int -> params
(** MCNC-like defaults: 8% inputs, 6% outputs, 8% flip-flops, max fanin 4,
    locality 0.65 over a window of 24, feedback 0.5. *)

val generate : params -> seed:int -> Netlist.t
(** Raises [Invalid_argument] if the parameters are infeasible
    (e.g. [n_cells] too small to hold two inputs and one output). *)
