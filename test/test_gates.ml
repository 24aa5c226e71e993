(* The paper's claims as tier-1 gates: a change that quietly degrades
   result quality fails here rather than in a bench nobody re-runs.

   Figure 6 (the dynamics of the simultaneous layout process): on s1 at
   quick effort, seeds 1-3 all keep the shape; seed 1 is the gate. *)

module Fig6 = Spr_experiments.Dynamics_fig

let test_figure6_shape () =
  let t = Fig6.run ~effort:Spr_experiments.Profiles.Quick ~seed:1 ~circuit:"s1" () in
  if not (Fig6.shape_holds t) then
    Alcotest.failf "Figure 6 shape does not hold on s1, seed 1:\n%s" (Fig6.render t)

let () =
  Alcotest.run "spr_gates"
    [
      ( "figure6",
        [ Alcotest.test_case "s1 keeps the Figure-6 shape at quick effort" `Slow test_figure6_shape ]
      );
    ]
