(** The run spec: everything that decides one run's trajectory — the
    design, the fabric, the seed, the effort, the flow and the fleet.

    [spr route] and [spr submit] build a spec from the same command-line
    flags, [spr route --run-dir] stores it as [DIR/spec.json] and
    [--run-resume] loads it back, and a serve job carries it from the
    [submit] frame through [job.json] into the worker. {!config} is the
    one mapping from a spec to the {!Spr_core.Config.t} the flow engine
    runs; {!netlist} and {!arch} rebuild the design and its fabric.

    Values are typed: effort, segmentation scheme, exchange policy and
    scheduler are decoded once, by {!of_json} or by the command line's
    converters, so a misspelling never reaches {!config}. *)

type design =
  | Circuit of string
      (** A built-in circuit, rebuilt from its name so net ids are
          reproducible. *)
  | Blif of string
      (** The BLIF bytes themselves: re-parsing identical bytes gives
          identical net ids, which snapshots reference. *)

type t = {
  label : string;  (** Run label in traces, reports and job listings. *)
  design : design;
  tracks : int;  (** Horizontal tracks per channel. *)
  scheme : Spr_arch.Segmentation.scheme;
  seed : int;
  effort : Spr_experiments.Profiles.effort;
  flow : string;  (** Flow preset or [+]-joined stage chain. *)
  stage_budgets : (string * float) list;  (** Wall seconds per flow stage. *)
  replicas : int;
  exchange : Spr_anneal.Portfolio.exchange;
  scheduler : Spr_core.Config.scheduler;  (** Kind plus the racing knobs. *)
  time_budget : float option;
      (** Wall seconds for one invocation; for a serve job also its soft
          timeout ({!Daemon} adds a hard backstop). *)
  max_moves : int option;  (** Annealing moves, cumulative across resumes. *)
}

val default : t
(** Built-in circuit [s1] (label [s1]) on 28 tracks of the actel
    segmentation, standard effort, and {!Spr_core.Config.default}'s
    seed, flow, fleet and scheduler, with no budgets. *)

val config : t -> n:int -> (Spr_core.Config.t, string) result
(** The configuration the spec runs on an [n]-cell design: the effort's
    annealing schedule, flow, stage budgets, budgets, fleet, scheduler
    and label, through {!Spr_core.Config.validated}. *)

val netlist : t -> (Spr_netlist.Netlist.t, string) result
(** Build the built-in circuit or parse the BLIF bytes. *)

val arch : t -> Spr_netlist.Netlist.t -> Spr_arch.Arch.t
(** The fabric sized for the design at the spec's tracks and scheme. *)

val validate : t -> (unit, string) result
(** Admission: a known circuit, at least one track, and a {!config}
    that validates; every problem is named in one message. *)

(** {1 JSON} *)

val to_json : t -> Spr_obs.Json.t

val of_json : Spr_obs.Json.t -> (t, string) result
(** Total. Exactly one of the [circuit]/[blif] fields must be set, and
    misspelt effort, scheme, exchange or scheduler values are errors
    naming the valid ones. Fields added after [job.json] files were
    first written ([flow], [stage_budgets], [scheduler], [race_margin],
    [race_warmup], [race_every]) take their {!default} when absent. *)

(** {1 Run directories} *)

val save : dir:string -> t -> unit
(** Create [dir] if needed and write [spec.json] atomically. *)

val load : string -> (t, string) result
(** Read [DIR/spec.json]; errors name the file. *)
