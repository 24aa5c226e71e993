(** Flow-preset sweep: every registered flow preset across circuits and
    seeds, recording final quality and how many annealing moves the
    [sa] stage spent — the evidence that the analytical seed placement
    ([ap+sa]) reaches the cold-start anneal's quality in a fraction of
    the moves. Feeds [BENCH_flows.json] and [spr flows]. *)

type row = {
  flow : string;
  circuit : string;
  seed : int;
  routed : bool;
  g : int;
  d : int;
  delay_ns : float;
  sa_moves : int;  (** 0 for flows without an [sa] stage. *)
  seconds : float;
  seed_temperature : float option;
}

val default_flows : string list

val default_circuits : string list

val run :
  ?effort:Profiles.effort ->
  ?tracks:int ->
  ?flows:string list ->
  ?circuits:string list ->
  ?seeds:int list ->
  unit ->
  row list

type comparison = {
  cells : int;  (** circuit×seed cells with both flows present. *)
  move_ratio : float;  (** Mean seeded/cold annealing-move ratio. *)
  quality_held : int;
      (** Cells where the seeded flow's unrouted count is equal-or-better
          and its critical delay at most 2% worse. *)
}

val compare_seeded : row list -> comparison
(** Pairs each [sa] row with the [ap+sa] row of the same circuit and
    seed ([ap+sa] is the seeded flow, [sa] the cold-start baseline). *)

val render : row list -> string

val schema : string
(** [Spr_obs.Bench.schema_version] — the sweep emits the unified
    [spr-bench-1] envelope with [bench = "flows"]. *)

val to_json : effort:Profiles.effort -> row list -> Spr_obs.Json.t
