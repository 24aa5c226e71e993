(** Minimal JSON values with a canonical printer and a strict parser.

    The observability layer has no external dependencies, so it carries
    its own JSON. The printer is {e canonical}: object fields keep their
    construction order, floats print with the shortest decimal form that
    round-trips bit-exactly, and strings escape exactly the characters
    that must be escaped. Canonical output is what makes the trace
    round-trip property (encode -> decode -> re-encode is bit-identical)
    and the fixed-seed trace-determinism property testable as plain
    string equality. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val float_repr : float -> string
(** Shortest ["%.15g"]/["%.16g"]/["%.17g"] form that parses back to the
    same bits. Infinities print as [1e999]/[-1e999] (syntactically valid
    JSON numbers that overflow back to the infinities on read); NaN
    prints as [null] and reads back through {!to_float} as [nan]. *)

val to_string : ?indent:bool -> t -> string
(** Canonical one-line form, or 2-space indented when [indent]. *)

val parse : string -> (t, string) Stdlib.result
(** Strict parse of a single JSON value (surrounding whitespace
    allowed). Errors carry a character offset. *)

(** {1 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]. *)

val to_int : t -> int option

val to_float : t -> float option
(** [Int], [Float], and — see {!float_repr} — [Null] (as [nan]). *)

val to_str : t -> string option

val to_bool : t -> bool option

val to_list : t -> t list option

(** {1 Field readers}

    The one set of readers behind every decoder of external JSON
    (reports, traces, specs, job records, service messages, outcome and
    flow files). A reader raises on a missing field or a value of the
    wrong kind; run the decoder under {!decode}, which turns that — or
    any other exception a malformed input provokes — into [Error]. *)

val decode : what:string -> (t -> 'a) -> t -> ('a, string) Stdlib.result
(** [decode ~what f j] runs [f j]. A reader's or {!fail}'s message
    becomes the [Error]; any other exception becomes
    ["malformed WHAT: EXN"]. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Abort the enclosing {!decode} with a formatted message. *)

val ok : ?context:string -> ('a, string) Stdlib.result -> 'a
(** The value of a nested decoder's result; its [Error] aborts the
    enclosing {!decode}, prefixed with ["CONTEXT: "] when given. *)

val get : t -> string -> t
(** The field; ["missing field NAME"] when absent. *)

val expect : string -> (t -> 'a option) -> string -> t -> 'a
(** [expect kind conv name v] converts [v], the value of field [name];
    ["field NAME: expected KIND"] when [conv] returns [None]. *)

val dint : t -> string -> int

val dfloat : t -> string -> float
(** Accepts an int, and [null] as [nan] (see {!to_float}). *)

val dstr : t -> string -> string

val dbool : t -> string -> bool

val dlist : t -> string -> t list

val dfields : t -> string -> (string * t) list
(** An object field's members, in order. *)

val dopt : (t -> string -> 'a) -> t -> string -> 'a option
(** [dopt read j name]: [None] when the field is absent or [null], else
    [Some (read j name)]. *)
