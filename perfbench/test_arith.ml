(* The benchmark's own arithmetic: span self times (including receives
   nested in a stalled send), the ten-samples-beyond percentile rule,
   interval overlap, and the update/query split of issue-order
   latencies. *)

let check_int = Alcotest.(check int)

(* An update [0, 200] whose broadcast [20, 120] stalled and drained two
   deliveries [30, 50] and [70, 100] from the sender's own mailbox. *)
let stalled_send () =
  let start = [| 0; 20; 30; 70 |] and stop = [| 200; 120; 50; 100 |] in
  let parent = [| -1; 0; 1; 1 |] in
  let self = Arith.self_times ~start ~stop ~parent ~len:4 in
  check_int "update self excludes the whole send" 100 self.(0);
  check_int "send self excludes the nested receives" 50 self.(1);
  check_int "receive self" 20 self.(2);
  check_int "receive self" 30 self.(3);
  check_int "self times partition the top-level span" 200
    (Array.fold_left ( + ) 0 self)

let unrelated_spans () =
  let start = [| 0; 10; 40 |] and stop = [| 5; 30; 45 |] in
  let self = Arith.self_times ~start ~stop ~parent:[| -1; -1; -1 |] ~len:3 in
  Alcotest.(check (array int)) "top-level spans keep their duration" [| 5; 20; 5 |] self

let percentile_rule () =
  let a n = Array.init n float_of_int in
  let value = function Some p -> p.Arith.value | None -> nan in
  let samples = function Some p -> p.Arith.samples | None -> -1 in
  Alcotest.(check bool) "p99 needs ten samples beyond it: 999 is too few" true
    (Arith.percentile (a 999) 0.99 = None);
  Alcotest.(check (float 0.0)) "p99 of 0..999 is 989" 989.0 (value (Arith.percentile (a 1000) 0.99));
  check_int "with its sample count" 1000 (samples (Arith.percentile (a 1000) 0.99));
  Alcotest.(check bool) "p50 of 19 samples has only 9 beyond it" true
    (Arith.percentile (a 19) 0.5 = None);
  Alcotest.(check (float 0.0)) "p50 of 0..19 is 9" 9.0 (value (Arith.percentile (a 20) 0.5));
  Alcotest.(check bool) "empty sample" true (Arith.percentile [||] 0.5 = None)

let median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Arith.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Arith.median [ 4.0; 1.0; 3.0; 2.0 ])

let overlap () =
  check_int "disjoint" 0 (Arith.overlap [ (0, 10) ] [ (10, 20) ]);
  check_int "pauses straddling span edges" 7
    (Arith.overlap [ (0, 10); (20, 30) ] [ (5, 12); (18, 21); (29, 40) ]);
  check_int "one pause covering two spans" 20 (Arith.overlap [ (0, 10); (20, 30) ] [ (0, 30) ])

let latency_split () =
  let u x = Protocol.Invoke_update x and q = Protocol.Invoke_query () in
  let script = [ u 1; q; u 2; u 3; q ] in
  let ups, qs = Arith.split_latencies script [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (list (float 0.0))) "updates in issue order" [ 1.0; 3.0; 4.0 ] ups;
  Alcotest.(check (list (float 0.0))) "queries in issue order" [ 2.0; 5.0 ] qs;
  Alcotest.check_raises "one latency per invocation"
    (Invalid_argument "Arith.split_latencies: one latency per invocation") (fun () ->
      ignore (Arith.split_latencies script [| 1.0 |]))

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "self time of a stalled send" `Quick stalled_send;
          Alcotest.test_case "self time of top-level spans" `Quick unrelated_spans;
          Alcotest.test_case "percentile needs ten samples beyond" `Quick percentile_rule;
          Alcotest.test_case "median" `Quick median;
          Alcotest.test_case "interval overlap" `Quick overlap;
          Alcotest.test_case "update/query latency split" `Quick latency_split;
        ] );
    ]
