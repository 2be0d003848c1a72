(* The sharded object space (tentpole: the whole stack generic over a
   shard map).

   - shard-aware Proposition 4 differential on the parallel engine at
     shard counts 1/2/4 — per-shard logs equal across replicas, ω
     sweeps equal to the keyed fold, snapshot/absorb restore agreeing,
     keyed sub-updates conserved;
   - the sequential runner over the space: converged, certificates
     agree, online UC/EC monitors clean;
   - a hot-shard rebalance run (policy armed): at least one split
     fires, entries re-home, and the run still converges with clean
     monitors;
   - manual [trigger_split] + [force_migrate]: the merged sweep is
     preserved, entries move, and every surviving log entry routes to
     the shard that holds it under the post-split ring;
   - the UCX whole-space snapshot/absorb round trip;
   - journal [Rebalance]/[Shard] events through JSON and jsonl;
   - the per-shard registry rows as `ucsim report` renders them
     (golden). *)

module S = Space.Make (Set_spec) (Update_codec.For_set)
module B = Throughput.Space_bench (Set_spec) (Update_codec.For_set)
module R = Runner.Make (S)

(* ------------------------- workload plumbing ------------------------- *)

let set_update g =
  let v = 1 + Prng.int g 16 in
  if Prng.float g 1.0 < 0.3 then Set_spec.Delete v else Set_spec.Insert v

let scripts ~seed ~n ~ops ~keys ~skew =
  Workload.For_space.zipf_scripts ~rng:(Prng.create seed) ~n
    ~ops_per_process:ops ~keys ~skew ~fanout:3 ~query_ratio:0.25
    ~update:set_update
    ~query:(fun _ -> Set_spec.Read)
    ~read:(fun k q -> S.K.Read (k, q))

let run_space ?policy ?obs ?(monitors = []) ~shards ~seed ~n ~ops ~keys ~skew
    () =
  let map = S.create_map ?policy ?obs ~shards () in
  S.configure map;
  let monitor =
    if monitors = [] then None else Some (R.Mon.create ~n ~criteria:monitors)
  in
  let config =
    {
      (R.default_config ~n ~seed) with
      R.final_read = Some S.K.Sweep;
      obs;
      monitor;
    }
  in
  let r = R.run config ~workload:(scripts ~seed ~n ~ops ~keys ~skew) in
  (map, monitor, r)

(* --------------------------- manual harness -------------------------- *)

(* Two replicas wired through in-memory mailboxes: enough network to
   exercise fan-out, split and migration without the simulator. *)
let manual_pair map =
  S.configure map;
  let boxes = Array.init 2 (fun _ -> Queue.create ()) in
  let ctx pid : _ Protocol.ctx =
    {
      Protocol.pid;
      n = 2;
      now = (fun () -> 0.0);
      send = (fun ~dst m -> Queue.push (pid, m) boxes.(dst));
      broadcast = (fun m -> Queue.push (pid, m) boxes.(1 - pid));
      broadcast_batch =
        (fun ms -> List.iter (fun m -> Queue.push (pid, m) boxes.(1 - pid)) ms);
      set_timer = (fun ~delay:_ _ -> ());
      count_replay = ignore;
      obs = None;
    }
  in
  let rs = Array.init 2 (fun pid -> S.create (ctx pid)) in
  let drain () =
    let quiet = ref false in
    while not !quiet do
      quiet := true;
      Array.iteri
        (fun dst box ->
          while not (Queue.is_empty box) do
            quiet := false;
            let src, m = Queue.pop box in
            S.receive rs.(dst) ~src m
          done)
        boxes
    done
  in
  (rs, drain)

let sweep r =
  let out = ref None in
  S.query r S.K.Sweep ~on_result:(fun o -> out := Some o);
  match !out with Some o -> o | None -> Alcotest.fail "sweep did not answer"

let feed_manual ~seed ~ops (rs : S.t array) drain =
  let g = Prng.create seed in
  for _ = 1 to ops do
    let p = Prng.int g 2 in
    let width = 1 + Prng.int g 3 in
    let batch = ref [] in
    for _ = 1 to width do
      let k = Prng.int g 32 in
      batch := (k, set_update g) :: !batch
    done;
    S.update rs.(p) (List.rev !batch) ~on_done:ignore;
    drain ()
  done

let entries_route_home map r =
  List.for_all
    (fun (s, log) ->
      List.for_all (fun (_, _, (k, _)) -> Ring.route (S.ring map) k = s) log)
    (S.shard_logs r)

(* ------------------------------ tests -------------------------------- *)

let differential_tests =
  [
    Alcotest.test_case
      "parallel differential holds at shards 1/2/4 (logs, ω fold, snapshot, \
       conservation)"
      `Slow
      (fun () ->
        List.iter
          (fun (shards, seed) ->
            let scripts =
              B.zipf_scripts ~seed ~domains:2 ~ops:300 ~keys:64 ~skew:1.1
                ~fanout:3 ~query_ratio:0.2
            in
            let v = B.measure ~shards ~domains:2 ~scripts () in
            Alcotest.(check bool)
              (Printf.sprintf "shards=%d seed=%d" shards seed)
              true (B.ok v))
          [ (1, 3); (2, 17); (4, 42) ]);
    Alcotest.test_case "sequential runner converges with clean monitors"
      `Quick
      (fun () ->
        let map, monitor, r =
          run_space ~monitors:[ Obs.Monitor.Uc; Obs.Monitor.Ec ] ~shards:4
            ~seed:7 ~n:3 ~ops:20 ~keys:64 ~skew:1.1 ()
        in
        Alcotest.(check bool) "converged" true r.R.converged;
        Alcotest.(check bool) "certificates agree" true r.R.certificates_agree;
        Alcotest.(check int) "ring untouched without a policy" 0
          (S.rebalances map);
        match monitor with
        | None -> Alcotest.fail "monitor missing"
        | Some m ->
          Alcotest.(check (list string)) "monitors clean" []
            (List.map
               (Format.asprintf "%a" Obs.Monitor.pp_violation)
               (R.Mon.violations m)));
  ]

let rebalance_tests =
  [
    Alcotest.test_case
      "hot-shard rebalance fires, re-homes entries, converges, monitors clean"
      `Quick
      (fun () ->
        let policy =
          { S.interval = 15.0; hot_factor = 1.5; max_shards = 64 }
        in
        let map, monitor, r =
          run_space ~policy ~monitors:[ Obs.Monitor.Uc; Obs.Monitor.Ec ]
            ~shards:2 ~seed:11 ~n:3 ~ops:30 ~keys:16 ~skew:1.1 ()
        in
        Alcotest.(check bool) "at least one split" true (S.rebalances map >= 1);
        Alcotest.(check bool) "ring grew" true (Ring.shards (S.ring map) > 2);
        Alcotest.(check bool) "entries re-homed" true (S.moved_entries map > 0);
        Alcotest.(check bool) "converged" true r.R.converged;
        Alcotest.(check bool) "certificates agree" true r.R.certificates_agree;
        match monitor with
        | None -> Alcotest.fail "monitor missing"
        | Some m ->
          Alcotest.(check (list string)) "monitors clean" []
            (List.map
               (Format.asprintf "%a" Obs.Monitor.pp_violation)
               (R.Mon.violations m)));
  ]

let migration_tests =
  [
    Alcotest.test_case
      "manual split + migrate preserves the sweep and re-homes entries"
      `Quick
      (fun () ->
        let map = S.create_map ~shards:2 () in
        let rs, drain = manual_pair map in
        feed_manual ~seed:5 ~ops:60 rs drain;
        let before = sweep rs.(0) in
        Alcotest.(check bool) "replicas agree pre-split" true
          (S.K.equal_output before (sweep rs.(1)));
        let hot, _ =
          match S.shard_ops map with
          | [] -> Alcotest.fail "no shard ops"
          | x :: tl ->
            List.fold_left
              (fun (h, c) (s, n) -> if n > c then (s, n) else (h, c))
              x tl
        in
        let fresh = S.trigger_split map ~now:1.0 ~hot in
        Alcotest.(check bool) "fresh shard id is new" true (fresh > hot);
        Array.iter S.force_migrate rs;
        drain ();
        Alcotest.(check bool) "entries re-homed" true (S.moved_entries map > 0);
        Array.iter
          (fun r ->
            Alcotest.(check bool) "sweep preserved across migration" true
              (S.K.equal_output before (sweep r));
            Alcotest.(check bool) "every entry routes to its shard" true
              (entries_route_home map r))
          rs;
        (* Migration only moves entries, it never loses or duplicates
           them: per-shard lengths sum to the pre-split total. *)
        let total r =
          List.fold_left (fun n (_, l) -> n + l) 0 (S.shard_log_lengths r)
        in
        Alcotest.(check int) "log mass conserved" (total rs.(0)) (total rs.(1)));
    Alcotest.test_case "UCX snapshot/absorb restores a fresh replica" `Quick
      (fun () ->
        let map = S.create_map ~shards:4 () in
        let rs, drain = manual_pair map in
        feed_manual ~seed:9 ~ops:40 rs drain;
        let snap =
          match S.snapshot rs.(0) with
          | Some s -> s
          | None -> Alcotest.fail "space must provide a snapshot"
        in
        let map' = S.create_map ~shards:4 () in
        let fresh, _ = manual_pair map' in
        Alcotest.(check bool) "absorb accepts" true (S.absorb fresh.(0) snap);
        Alcotest.(check bool) "restored sweep agrees" true
          (S.K.equal_output (sweep rs.(0)) (sweep fresh.(0)));
        (* Absorbing twice changes nothing: timestamp-union merge. *)
        Alcotest.(check bool) "absorb is idempotent" true
          (S.absorb fresh.(0) snap);
        Alcotest.(check bool) "sweep unchanged" true
          (S.K.equal_output (sweep rs.(0)) (sweep fresh.(0))));
  ]

let journal_tests =
  [
    Alcotest.test_case "Rebalance/Shard events round-trip JSON and jsonl"
      `Quick
      (fun () ->
        let events =
          [
            Obs.Journal.Rebalance
              { time = 12.5; hot = 1; fresh = 4; shards = 5; moved = 37 };
            Obs.Journal.Shard { time = 12.5; shard = 1; ops = 120; log = 64 };
            Obs.Journal.Shard { time = 12.5; shard = 4; ops = 0; log = 0 };
          ]
        in
        List.iter
          (fun e ->
            Alcotest.(check bool) "event json round-trip" true
              (Obs.Journal.event_of_json (Obs.Journal.event_to_json e) = e))
          events;
        let j = Obs.Journal.create ~header:[ ("shards", Obs.Json.Num 5.0) ] () in
        List.iter (Obs.Journal.record j) events;
        Obs.Journal.seal j ~fingerprint:"cafe";
        let j' = Obs.Journal.of_jsonl (Obs.Journal.to_jsonl j) in
        (match Obs.Journal.diff j j' with
        | None -> ()
        | Some (i, a, b) ->
          Alcotest.failf "jsonl round-trip diverges at %d: %s vs %s" i a b);
        Alcotest.(check (option string)) "fingerprint survives" (Some "cafe")
          (Obs.Journal.fingerprint j'));
  ]

(* The registry rows as `ucsim report` renders them: to_json →
   rows_of_json → pp_rows, filtered to the shard family. Golden — the
   run is deterministic, so the exact counts are part of the
   contract. *)
let registry_golden =
  Alcotest.test_case "per-shard registry rows render as a stable table"
    `Quick
    (fun () ->
      let obs = Obs.create () in
      let map, _, r =
        run_space ~obs ~shards:2 ~seed:13 ~n:2 ~ops:8 ~keys:16 ~skew:1.1 ()
      in
      Alcotest.(check bool) "converged" true r.R.converged;
      let rows =
        Obs.Registry.rows_of_json (Obs.Registry.to_json obs.Obs.registry)
      in
      let shard_rows =
        List.filter
          (fun (row : Obs.Registry.row) ->
            String.length row.name >= 6 && String.sub row.name 0 6 = "shard_")
          rows
      in
      let rendered = Format.asprintf "%a" Obs.Registry.pp_rows shard_rows in
      let total_ops =
        List.fold_left (fun n (_, ops) -> n + ops) 0 (S.shard_ops map)
      in
      let counter name labels =
        match
          List.find_opt
            (fun (row : Obs.Registry.row) ->
              row.name = name && row.labels = labels)
            shard_rows
        with
        | Some { data = Obs.Registry.Count c; _ } -> c
        | _ -> Alcotest.failf "row %s missing" name
      in
      Alcotest.(check int) "shard_ops rows sum to the map's total" total_ops
        (counter "shard_ops" [ ("shard", "0") ]
        + counter "shard_ops" [ ("shard", "1") ]);
      Alcotest.(check string) "report rendering (golden)"
        (String.concat "\n"
           [
             "shard_log_entries{shard=0}  22";
             "shard_log_entries{shard=1}  10";
             "shard_moved_entries         0";
             "shard_ops{shard=0}          22";
             "shard_ops{shard=1}          10";
             "shard_splits{shard=0}       0";
             "shard_splits{shard=1}       0";
             "";
           ])
        rendered)

(* The sharded view must reject too: replica 1 absorbs replica 0's
   whole-space snapshot and then takes one local keyed update, so its
   shard logs hold one entry more and only log agreement fails. *)
let differential_rejects_an_extra_entry =
  Alcotest.test_case "a replica one entry long fails per-shard log agreement"
    `Quick (fun () ->
      let domains = 2 in
      let scripts =
        B.zipf_scripts ~seed:5 ~domains ~ops:60 ~keys:32 ~skew:1.1 ~fanout:2
          ~query_ratio:0.0
      in
      let v = B.measure ~shards:2 ~domains ~scripts () in
      Alcotest.(check bool) "the honest run passes" true (B.ok v);
      let run = v.B.run in
      let r0 = run.B.E.replicas.(0) in
      let long = B.S.create (Throughput.dummy_ctx ~pid:1 ~n:domains) in
      (match B.S.snapshot r0 with
      | Some frame ->
        Alcotest.(check bool) "absorbed" true (B.S.absorb long frame)
      | None -> Alcotest.fail "the space has no snapshot");
      B.S.update long [ (0, Set_spec.Insert 99) ] ~on_done:ignore;
      let w =
        B.judge ~final_read:B.S.K.Sweep ~scripts
          { run with B.E.replicas = [| r0; long |] }
      in
      Alcotest.(check bool) "verdict" false (B.ok w);
      Alcotest.(check (list string))
        "failing clauses" [ "logs agree" ]
        (List.filter_map
           (fun (name, holds) -> if holds then None else Some name)
           w.B.clauses))

let tests =
  differential_tests @ rebalance_tests @ migration_tests @ journal_tests
  @ [ registry_golden; differential_rejects_an_extra_entry ]
