type t = {
  width : float;
  height : float;
  buf : Buffer.t;
}

let create ~width ~height =
  let buf = Buffer.create 4096 in
  { width; height; buf }

let addf t fmt = Printf.ksprintf (Buffer.add_string t.buf) fmt

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rect t ~x ~y ~w ~h ?(rx = 0.0) ?(stroke = "none") ?(stroke_width = 1.0) ?(fill = "none")
    ?(opacity = 1.0) () =
  addf t
    "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" rx=\"%.2f\" stroke=\"%s\" \
     stroke-width=\"%.2f\" fill=\"%s\" opacity=\"%.2f\"/>\n"
    x y w h rx stroke stroke_width fill opacity

let line t ~x1 ~y1 ~x2 ~y2 ?(stroke = "black") ?(stroke_width = 1.0) ?(opacity = 1.0) () =
  addf t
    "<line x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" y2=\"%.2f\" stroke=\"%s\" \
     stroke-width=\"%.2f\" opacity=\"%.2f\"/>\n"
    x1 y1 x2 y2 stroke stroke_width opacity

let circle t ~cx ~cy ~r ?(stroke = "none") ?(fill = "black") () =
  addf t "<circle cx=\"%.2f\" cy=\"%.2f\" r=\"%.2f\" stroke=\"%s\" fill=\"%s\"/>\n" cx cy r
    stroke fill

let text t ~x ~y ?(size = 10.0) ?(fill = "black") s =
  addf t
    "<text x=\"%.2f\" y=\"%.2f\" font-size=\"%.1f\" font-family=\"monospace\" fill=\"%s\" \
     text-anchor=\"start\">%s</text>\n"
    x y size fill (escape s)

let comment t s = addf t "<!-- %s -->\n" (escape s)

let to_string t =
  Printf.sprintf
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
     <svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" \
     viewBox=\"0 0 %.0f %.0f\">\n%s</svg>\n"
    t.width t.height t.width t.height (Buffer.contents t.buf)

let save t path =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc
