(* Dynamic membership: replicas join, leave, and rejoin mid-run —
   joiners catch up from a Persist snapshot, leavers' scripts park,
   rejoiners resume from crash-time state. Through all of it the
   Proposition 4 contract must hold: the converged state is a pure
   function of the timestamp-ordered update multiset (the certificate),
   and churn-run journals must round-trip byte-for-byte. *)

open Helpers
module P = Persist.Catchup (Generic.Make (Set_spec)) (Update_codec.For_set)
module R = Runner.Make (P)
module Set_workload = Workload.Make (Set_spec)

let churn_schedule =
  [
    { Network.time = 20.0; pid = 3; action = Network.Join };
    { Network.time = 30.0; pid = 2; action = Network.Leave };
    { Network.time = 60.0; pid = 2; action = Network.Rejoin };
  ]

let run_churn ?(churn = churn_schedule) ?(partitions = []) ?obs ~seed ~n ~ops () =
  let rng = Prng.create seed in
  let workload =
    Workload.For_set.conflict ~rng ~n ~ops_per_process:ops ~domain:8 ~skew:1.0
      ~delete_ratio:0.3
  in
  let config =
    {
      (R.default_config ~n ~seed) with
      R.delay = Network.Exponential { mean = 10.0 };
      churn;
      partitions;
      final_read = Some Set_spec.Read;
      obs;
    }
  in
  R.run config ~workload

(* The runner's array-backed bookkeeping on a run with every fault
   kind and queries: the history is what [History.make] builds from its
   own per-process steps, every event's span is the one the journal
   recorded for it (updates complete synchronously under Algorithm 1,
   ω reads are instantaneous), and there is one latency per completed
   operation. *)
let runner_bookkeeping () =
  let n = 4 in
  let journal = Obs.Journal.create () in
  let obs = Obs.create ~journal () in
  let workload =
    Set_workload.mixed ~rng:(Prng.create 17) ~n ~ops_per_process:12 ~query_ratio:0.4
  in
  let config =
    {
      (R.default_config ~n ~seed:17) with
      R.delay = Network.Exponential { mean = 10.0 };
      churn = churn_schedule;
      partitions = [ { Network.from_time = 25.0; to_time = 55.0; group = [ 1 ] } ];
      crashes = [ (40.0, 0) ];
      final_read = Some Set_spec.Read;
      obs = Some obs;
    }
  in
  let r = R.run config ~workload in
  let h = r.R.history in
  Alcotest.(check bool) "history = make of its steps" true
    (History.make (List.init n (History.steps_of_process h)) = h);
  Alcotest.(check bool) "p0 crashed before its ω read" true
    (not (List.mem_assoc 0 r.R.final_outputs));
  let { Check_lin.starts; finishes } = r.R.intervals in
  Alcotest.(check int) "one start per event" (History.size h) (Array.length starts);
  Alcotest.(check int) "one finish per event" (History.size h) (Array.length finishes);
  let pending = Array.init n (History.process_events h) in
  let next pid =
    match pending.(pid) with
    | e :: rest ->
      pending.(pid) <- rest;
      e
    | [] -> Alcotest.failf "journal has more operations than p%d's history" pid
  in
  let span (e : _ History.event) =
    (starts.(e.History.id), finishes.(e.History.id))
  in
  let queries = ref 0 in
  List.iter
    (function
      | Obs.Journal.Update { pid; time; _ } ->
        let e = next pid in
        Alcotest.(check bool) "an update" true (History.update_of e <> None);
        Alcotest.(check (pair (float 0.0) (float 0.0))) "update span" (time, time) (span e)
      | Obs.Journal.Query { pid; invoked; completed; omega; _ } ->
        incr queries;
        let e = next pid in
        Alcotest.(check bool) "a query" true (History.query_of e <> None);
        Alcotest.(check bool) "ω flag" omega e.History.omega;
        Alcotest.(check (pair (float 0.0) (float 0.0)))
          "query span"
          ((if omega then completed else invoked), completed)
          (span e)
      | _ -> ())
    (Obs.Journal.events journal);
  Alcotest.(check bool) "ran queries" true (!queries > n);
  Array.iteri
    (fun pid rest ->
      Alcotest.(check int) (Printf.sprintf "p%d fully journaled" pid) 0 (List.length rest))
    pending;
  let completed = r.R.metrics.Metrics.ops_completed in
  Alcotest.(check int) "one latency per completed op" completed
    (Array.length r.R.op_latencies);
  Alcotest.(check int) "every non-ω event completed" completed
    (List.length (List.filter (fun e -> not e.History.omega) (History.events h)))

let tests =
  [
    qtest ~count:25 "join/leave/rejoin under a partition still converges" seed_gen
      (fun seed ->
        let partitions =
          [ { Network.from_time = 25.0; to_time = 55.0; group = [ 1 ] } ]
        in
        let r = run_churn ~partitions ~seed ~n:4 ~ops:5 () in
        r.R.converged && r.R.certificates_agree
        && List.length r.R.final_outputs = 4);
    qtest ~count:25 "Prop. 4 oracle: ω is the timestamp-order fold of the certificate"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let workload =
          Workload.For_set.conflict ~rng ~n:4 ~ops_per_process:4 ~domain:8
            ~skew:1.0 ~delete_ratio:0.3
        in
        let invoked =
          Array.fold_left (fun acc s -> acc + List.length s) 0 workload
        in
        let r = run_churn ~seed ~n:4 ~ops:4 () in
        r.R.converged && r.R.certificates_agree
        && List.for_all
             (fun (_, cert) ->
               (* The conflict workload is updates-only and everyone is
                  present at the end, so every certificate carries the
                  full update multiset and folds to the common ω. *)
               List.length cert = invoked
               &&
               let state =
                 List.fold_left
                   (fun s (_, u) -> Set_spec.apply s u)
                   Set_spec.initial cert
               in
               let expect = Set_spec.eval state Set_spec.Read in
               List.for_all (fun (_, o) -> o = expect) r.R.final_outputs)
             r.R.certificates);
    Alcotest.test_case "a leaver that never returns is excluded from ω" `Quick
      (fun () ->
        let churn = [ { Network.time = 25.0; pid = 2; action = Network.Leave } ] in
        let r = run_churn ~churn ~seed:11 ~n:3 ~ops:4 () in
        Alcotest.(check int) "two ω reads" 2 (List.length r.R.final_outputs);
        Alcotest.(check bool) "pid 2 takes no ω read" false
          (List.mem_assoc 2 r.R.final_outputs);
        Alcotest.(check bool) "the present replicas converge" true r.R.converged);
    Alcotest.test_case "a late joiner catches up from a snapshot" `Quick (fun () ->
        let journal = Obs.Journal.create () in
        let obs = Obs.create ~journal () in
        let churn = [ { Network.time = 50.0; pid = 2; action = Network.Join } ] in
        let r = run_churn ~churn ~obs ~seed:5 ~n:3 ~ops:4 () in
        Alcotest.(check int) "all three ω reads" 3 (List.length r.R.final_outputs);
        Alcotest.(check bool) "converged" true r.R.converged;
        let joins =
          List.filter_map
            (function
              | Obs.Journal.Join { pid; rejoin; _ } -> Some (pid, rejoin)
              | _ -> None)
            (Obs.Journal.events journal)
        in
        Alcotest.(check (list (pair int bool))) "one fresh join journaled"
          [ (2, false) ] joins);
    Alcotest.test_case "a rejoin is journaled as one, after its leave" `Quick
      (fun () ->
        let journal = Obs.Journal.create () in
        let obs = Obs.create ~journal () in
        let r = run_churn ~obs ~seed:9 ~n:4 ~ops:4 () in
        Alcotest.(check bool) "converged" true r.R.converged;
        let churn_events =
          List.filter_map
            (function
              | Obs.Journal.Join { pid; rejoin; _ } ->
                Some (if rejoin then `Rejoin pid else `Join pid)
              | Obs.Journal.Leave { pid; _ } -> Some (`Leave pid)
              | _ -> None)
            (Obs.Journal.events journal)
        in
        Alcotest.(check bool) "join, leave, rejoin in schedule order" true
          (churn_events = [ `Join 3; `Leave 2; `Rejoin 2 ]));
    Alcotest.test_case "churn journals replay event-for-event" `Quick (fun () ->
        let capture () =
          let journal = Obs.Journal.create () in
          let obs = Obs.create ~journal () in
          let partitions =
            [ { Network.from_time = 25.0; to_time = 55.0; group = [ 1 ] } ]
          in
          ignore (run_churn ~partitions ~obs ~seed:21 ~n:4 ~ops:5 ());
          journal
        in
        let j1 = capture () and j2 = capture () in
        (match Obs.Journal.diff j1 j2 with
        | None -> ()
        | Some (i, a, b) -> Alcotest.failf "replay diverged at %d: %s vs %s" i a b);
        (* Serialization round-trip: parse-back of the emitted JSONL is
           the same journal, fingerprint included. *)
        (match Obs.Journal.diff j1 (Obs.Journal.of_jsonl (Obs.Journal.to_jsonl j1)) with
        | None -> ()
        | Some (i, a, b) ->
          Alcotest.failf "round-trip diverged at %d: %s vs %s" i a b);
        Alcotest.(check bool) "sealed" true (Obs.Journal.fingerprint j1 <> None);
        Alcotest.(check (option string)) "same history fingerprint"
          (Obs.Journal.fingerprint j1) (Obs.Journal.fingerprint j2));
    Alcotest.test_case "runner bookkeeping agrees with the journal" `Quick
      runner_bookkeeping;
  ]
