(* The experiment drivers themselves: regression-test the shapes the
   paper demands, so a change that silently breaks a reproduction fails
   the suite rather than just altering a printed table. *)

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let tests =
  [
    Alcotest.test_case "F1 table matches every paper verdict" `Quick (fun () ->
        let rendered = Table.render (Experiments.fig1 ()) in
        Alcotest.(check bool) "no disagreement markers" false
          (contains "paper says" rendered));
    Alcotest.test_case "F2 analysis agrees with the paper" `Quick (fun () ->
        let text = Experiments.fig2 () in
        Alcotest.(check bool) "PC yes" true (contains "PC: yes" text);
        Alcotest.(check bool) "EC no" true (contains "EC: no" text));
    Alcotest.test_case "P1 table shows the dilemma" `Slow (fun () ->
        let rendered = Table.render (Experiments.prop1 ~seed:42) in
        (* pipelined row diverges, universal row converges *)
        Alcotest.(check bool) "has pipelined row" true (contains "pipelined" rendered);
        Alcotest.(check bool) "pipelined diverged" true (contains "| no " rendered);
        Alcotest.(check bool) "universal row" true (contains "universal" rendered));
    Alcotest.test_case "P4 finds zero violations for Algorithm 1" `Slow (fun () ->
        let rendered = Table.render (Experiments.prop4_modelcheck ()) in
        Alcotest.(check bool) "universal clean" true
          (contains "| universal (Alg.1)          | set     | 630       | yes        | 0" rendered));
    Alcotest.test_case "C4 keeps wait-free latency at zero" `Slow (fun () ->
        let rendered = Table.render (Experiments.latency_vs_rtt ~seed:42) in
        Alcotest.(check bool) "universal flat" true
          (contains "| universal    |           125 |             0.0 |" rendered);
        Alcotest.(check bool) "abd scales" true
          (contains "| abd-register |           125 |           500.0 |" rendered));
    Alcotest.test_case "every experiment renders non-empty" `Slow (fun () ->
        List.iter
          (fun (id, _, body) ->
            Alcotest.(check bool) (id ^ " non-empty") true (String.length (body ()) > 40))
          (Experiments.all ~seed:42 ()));
  ]
