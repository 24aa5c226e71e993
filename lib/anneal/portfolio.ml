type exchange = Independent | Best_exchange of int

let exchange_to_string = function
  | Independent -> "independent"
  | Best_exchange n -> Printf.sprintf "best:%d" n

let exchange_of_string s =
  match s with
  | "independent" -> Ok Independent
  | _ -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "best" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt rest with
      | Some n when n >= 1 -> Ok (Best_exchange n)
      | _ -> Error (Printf.sprintf "bad exchange period %S (want a positive integer)" rest))
    | _ -> Error (Printf.sprintf "unknown exchange policy %S (want independent or best:N)" s))

let run_replicas ~replicas f =
  if replicas < 1 then invalid_arg "Portfolio.run_replicas: replicas must be >= 1";
  let guard k = try Ok (f k) with e -> Error e in
  if replicas = 1 then [| guard 0 |]
  else begin
    let spawned =
      Array.init (replicas - 1) (fun i -> Domain.spawn (fun () -> guard (i + 1)))
    in
    let first = guard 0 in
    Array.append [| first |] (Array.map Domain.join spawned)
  end
