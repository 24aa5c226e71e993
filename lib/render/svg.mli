(** Minimal SVG document builder — just enough to draw placed-and-routed
    die plots (the artifact of the paper's Figure 7). *)

type t

val create : width:float -> height:float -> t

val rect :
  t -> x:float -> y:float -> w:float -> h:float -> ?rx:float -> ?stroke:string ->
  ?stroke_width:float -> ?fill:string -> ?opacity:float -> unit -> unit

val line :
  t -> x1:float -> y1:float -> x2:float -> y2:float -> ?stroke:string ->
  ?stroke_width:float -> ?opacity:float -> unit -> unit

val circle :
  t -> cx:float -> cy:float -> r:float -> ?stroke:string -> ?fill:string -> unit -> unit

val text : t -> x:float -> y:float -> ?size:float -> ?fill:string -> string -> unit

val comment : t -> string -> unit

val to_string : t -> string
(** The complete SVG document. *)

val save : t -> string -> unit
(** Write to a file. *)
