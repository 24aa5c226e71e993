(** The one bench-artifact emitter: every BENCH_*.json the repo writes
    (kernels, portfolio, flows, serve, racing) goes
    through {!write}, so they all share one versioned envelope and a
    reader never has to guess which fields exist.

    Envelope shape ([spr-bench-1]):

    {v
    { "schema": "spr-bench-1",
      "bench":  "<bench name>",
      "effort": "quick|standard|thorough",
      "cores":  <recommended domain count>,
      "commit": "<git HEAD hash, or "unknown">",
      ...bench-specific payload fields... }
    v}

    [cores] makes throughput numbers honest on time-sliced boxes, and
    [commit] pins before/after comparisons to the tree they measured. *)

val schema_version : string
(** ["spr-bench-1"]. *)

val commit : unit -> string
(** The current git HEAD commit hash, resolved by reading [.git/HEAD]
    (and, for symbolic refs, the ref file or [.git/packed-refs]) —
    no subprocess. ["unknown"] when the walk fails: not a git checkout,
    an unborn branch, or an unreadable file. *)

val payload : bench:string -> effort:string -> (string * Json.t) list -> Json.t
(** The envelope with the payload fields appended, as one flat object.
    Payload keys must not collide with the envelope's
    ([schema]/[bench]/[effort]/[cores]/[commit]). *)

val write : path:string -> bench:string -> effort:string -> (string * Json.t) list -> unit
(** Atomically write {!payload} to [path], indented, newline-terminated. *)
