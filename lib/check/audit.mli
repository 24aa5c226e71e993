(** Umbrella over the three full-state auditors.

    The intended call sites: [Tool.config.validate = true] runs this
    every N accepted moves and per temperature; [spr route --selfcheck]
    runs it on the final layout; the property harness ({!Prop} over
    {!Spr_ops}) runs it after every generated operation. *)

val run_all : ?sta:Spr_timing.Sta.t -> Spr_route.Route_state.t -> Finding.t list
(** Place audit (over the state's placement), route audit, and — when
    [sta] is given — the timing audit. *)

val result : Finding.t list -> (unit, string) Stdlib.result
(** [Ok ()] on no findings, else every finding joined into one
    message. *)
