(** Durable-state plumbing shared by every component that writes run
    state to disk: content checksums, torn-write-proof file updates, and
    bit-exact float round-tripping for deterministic resume.

    None of this interprets file contents — formats live with their
    owners (e.g. {!Spr_core.Checkpoint}); this module only guarantees
    that what was written is what is read back, or that the corruption
    is detected. *)

val fnv1a64 : string -> int64
(** FNV-1a 64-bit hash of the whole string. Not cryptographic — it
    detects truncation and bit flips, not tampering. *)

val checksum_hex : string -> string
(** {!fnv1a64} as 16 lowercase hex digits. *)

val frame : magic:string -> version:int -> string -> string
(** [frame ~magic ~version payload] is the header line
    [MAGIC VERSION CHECKSUM BYTES] followed by [payload], where CHECKSUM
    is the payload's {!checksum_hex} and BYTES its length. The payload
    grammar stays with the format's owner. *)

val unframe : magic:string -> version:int -> string -> (string, string) Stdlib.result
(** The payload of a {!frame}d text, or [Error] when the header is
    missing or malformed, names another magic or version, or the
    payload is truncated or fails its checksum. Bytes past the payload
    are ignored. *)

val float_to_hex : float -> string
(** IEEE-754 bit pattern as 16 hex digits. Unlike decimal printing this
    round-trips every float bit-exactly (including infinities and NaN),
    which resumable checkpoints rely on. *)

val float_of_hex : string -> float option

val int64_to_hex : int64 -> string

val int64_of_hex : string -> int64 option

val atomic_write : ?durable:bool -> string -> string -> unit
(** [atomic_write path text] writes [text] to [path ^ ".tmp"], then
    [Sys.rename]s it over [path], so a crash mid-write can never leave a
    half-written [path] — readers see the old contents or the new, never
    a mix. The temp file is removed on write failure.

    With [~durable:true] (default false) the temp file is fsynced
    before the rename and the containing directory is fsynced after it,
    so the update survives power loss, not just process crash — without
    the directory sync the rename itself can be lost and the file
    reappear under its old contents (or not at all) after a reboot.
    Checkpoint rotation and service job records use this; throwaway
    artifacts (reports, bench JSON) do not pay for it. *)

val fsync_dir : string -> unit
(** Fsync a directory so recently renamed/created entries in it survive
    power loss. Best-effort: errors (e.g. on filesystems that refuse
    directory fsync) are swallowed. *)

val read_file : string -> (string, string) Stdlib.result
(** Whole-file read; [Error] (with the system message) instead of an
    exception when the file is missing or unreadable. *)

val ensure_dir : string -> unit
(** Create a directory if it does not exist (single level). Safe to
    call concurrently for the same path. Raises [Invalid_argument] if
    the path exists and is not a directory. *)
