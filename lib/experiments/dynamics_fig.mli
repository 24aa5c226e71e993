(** Experiment F6 — paper Figure 6: the dynamics of the simultaneous
    layout process. Per temperature: the percentage of cells perturbed,
    of nets globally unrouted, and of nets unrouted; the difference of
    the last two is the population that is globally routed but not yet
    detail routed. *)

type t = {
  circuit : string;
  rows : Spr_obs.Report.dyn_row list;  (** The winning replica's report rows. *)
  fully_routed : bool;
}

val run : ?effort:Profiles.effort -> ?seed:int -> ?circuit:string -> unit -> t
(** Default circuit: ["s1"]. *)

val render : t -> string

val shape_holds : t -> bool
(** The qualitative claims of Figure 6: placement activity decays from
    near-100% to a low tail; both unrouted fractions converge to zero by
    the end; the globally-unrouted fraction reaches zero no later than
    the total unrouted fraction. Used by the Figure-6 gate
    ([test/test_gates.ml]), [bench fig6] and EXPERIMENTS.md. *)
