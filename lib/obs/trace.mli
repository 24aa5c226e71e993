(** Schema-versioned JSONL event traces.

    A trace is a flat event stream, one canonical-JSON object per line.
    The first line is always a {!payload.Run_start} (which carries the
    schema version) and the last a {!payload.Run_end}; in between come
    the per-replica streams — serial runs record everything as replica
    [0], fleet runs merge the per-replica buffers in replica order,
    and fleet-scope events carry replica [-1].

    Traces from a fixed seed are bit-identical once timestamps are
    masked ({!mask_times}), which is what makes them diffable artifacts
    across runs, machines, and [--parallel] settings. *)

val schema_version : string
(** ["spr-trace-1"]. *)

type payload =
  | Run_start of { label : string; seed : int; replicas : int; n_cells : int; n_nets : int }
  | Span_begin of { name : string; depth : int; t : float }
      (** [t] is seconds since the replica's recording started. *)
  | Span_end of { name : string; depth : int; t : float; dt : float }
  | Temp of Report.dyn_row  (** one dynamics sample, at each temperature *)
  | Exchange of { round : int; from_replica : int; metric : float }
      (** Exchange round: every strictly worse replica adopted
          [from_replica]'s layout. *)
  | Metrics_dump of (string * Metrics.value) list
      (** The replica's registry snapshot, at the end of its stream. *)
  | Replica_end of {
      status : string;
      g : int;
      d : int;
      delay_ns : float;
      best_cost : float;
    }
  | Run_end of {
      status : string;
      g : int;
      d : int;
      delay_ns : float;
      best_cost : float;
      wall_seconds : float;
    }

type event = { ev_replica : int; ev : payload }

(** {1 Encoding} *)

val event_to_json : event -> Json.t

val event_of_json : Json.t -> (event, string) Stdlib.result

val encode_line : event -> string
(** One canonical JSON line, no trailing newline. *)

val decode_line : string -> (event, string) Stdlib.result

val mask_times : event -> event
(** Zero every wall-clock-derived field (span [t]/[dt], per-phase
    seconds in dynamics rows, gauge values in metric dumps, run wall
    seconds) so traces compare as strings across runs. *)

(** {1 Files} *)

val to_file : string -> event list -> unit
(** Atomic write (temp file + rename) of the whole trace. *)

val of_string : string -> (event list, string) Stdlib.result
(** Decode a whole trace from one string (JSONL, optional trailing
    newline); errors carry the 1-based line number. Total: truncated
    lines, interleaved garbage, and shape-violating events all come
    back as [Error], never an exception. *)

val of_file : string -> (event list, string) Stdlib.result
(** {!of_string} on the file's contents; errors carry the 1-based line
    number. *)

val validate : event list -> (unit, string) Stdlib.result
(** Structural check: non-empty, starts with [Run_start] (known
    schema), ends with [Run_end], with neither appearing elsewhere. *)
