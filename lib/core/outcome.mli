(** The one vocabulary for how a run ends.

    Every entry point in the core layer — {!Tool.run}, the flow
    engine, and the CLI on top of them — reports success,
    early stops, and failures with the types below, so callers match
    one error shape instead of three ad-hoc ones. {!Tool} re-exports
    the constructors via type equations; [Outcome] is the defining
    home. *)

type stop_reason =
  | Time_budget  (** wall-clock budget exhausted *)
  | Move_budget  (** cumulative move budget exhausted *)
  | Interrupt  (** signal, {!Tool.request_interrupt}, or fault injection *)

type status =
  | Completed
  | Interrupted of stop_reason
      (** The run stopped early with the best-so-far layout; a run
          directory (if configured) holds a resumable checkpoint. *)

type error =
  | Invalid_config of string
      (** The configuration failed the smart constructor's validation
          (e.g. a move probability outside [0, 1]). *)
  | Invalid_design of string
      (** The netlist does not fit the fabric or has combinational
          cycles. *)
  | Audit_failed of Spr_check.Finding.t list
      (** Validation caught an invariant violation mid-run. *)
  | Resume_failed of string
      (** The snapshot does not match the design or could not be
          loaded. *)

exception Error of error
(** Raised by the [_exn] entry points; aliased as [Tool.Tool_error]. *)

val stop_reason_to_string : stop_reason -> string

val status_to_string : status -> string
(** ["completed"] or ["interrupted (<reason>)"]. *)

val error_to_string : error -> string

val get : ('a, error) result -> 'a
(** [Ok x] is [x]; [Error e] raises {!Error}. *)
