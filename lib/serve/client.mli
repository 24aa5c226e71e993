(** Blocking client for the [spr serve] socket — what [spr submit] /
    [spr jobs] and the tests speak.

    One connection is one conversation ({!Protocol}). A connection owns
    a persistent frame decoder: a single [read] may deliver the tail of
    one frame and the head of the next, so per-call decoding would lose
    bytes — {!recv} never does. The split {!open_submit} / {!await}
    pair exists so a caller can hold several streaming submissions open
    at once (concurrency tests, the bench harness) without threads. *)

type conn

val connect : socket:string -> (conn, string) result

val close : conn -> unit
(** Safe to call twice. Closing a streaming submission abandons the
    stream — the job keeps running server-side. *)

val send : conn -> Protocol.request -> (unit, string) result

val recv : conn -> (Protocol.response, string) result
(** Block for the next whole frame. *)

val request : socket:string -> Protocol.request -> (Protocol.response, string) result
(** One-shot: connect, send, read a single reply, close. *)

val ping : socket:string -> (unit, string) result

val jobs : socket:string -> (Protocol.job_row list, string) result

val cancel : socket:string -> string -> (Protocol.response, string) result

val open_submit :
  socket:string ->
  Spec.t ->
  (conn * string, [ `Rejected of Protocol.reject_reason | `Error of string ]) result
(** Send a submission and read up to the [Accepted] frame; the returned
    connection is mid-stream (events and the terminal frame still to
    come) and the string is the job id. *)

val await :
  ?on_event:(Spr_obs.Trace.event -> unit) ->
  conn ->
  (Protocol.response, string) result
(** Read frames until the terminal one (which is returned), feeding
    each streamed trace event to [on_event]. Closes the connection. *)

val submit :
  ?on_event:(Spr_obs.Trace.event -> unit) ->
  socket:string ->
  Spec.t ->
  (Protocol.response, string) result
(** {!open_submit} + {!await}: block until the job ends either way.
    Rejections come back as [Ok (Rejected _)]; [Error] is reserved for
    transport failures. *)
