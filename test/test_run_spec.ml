(* The run description and its header codec, and the one sequential
   driver behind `ucsim run`/`soak`/`replay`/`shrink`: total round trips,
   total decoding, journal bytes pinned end to end, and the fault and
   channel settings every protocol honours. *)

open Helpers

let contains_sub s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---- generators ---- *)

let quarter = QCheck2.Gen.map (fun i -> float_of_int i /. 4.0) (QCheck2.Gen.int_range 0 800)

let gen_sim ~sharded ~soak =
  let open QCheck2.Gen in
  let* protocol = oneofl Run_driver.names in
  let* n = int_range 1 6 in
  let pid = int_range 0 (n - 1) in
  let* seed = int_range 0 1_000_000
  and* ops = int_range 0 200
  and* mean_delay = float_range 0.1 1000.0
  and* fifo = bool
  and* crashes = small_list (pair quarter pid)
  and* checkpoint_interval = opt (int_range 0 64)
  and* batch_window = opt quarter
  and* probe_interval = opt quarter
  and* monitors = small_list (oneofl Obs.Monitor.[ Uc; Ec; Pc ])
  and* partitions =
    small_list
      (let+ from_time = quarter and+ to_time = quarter and+ group = list_size (int_range 1 3) pid in
       { Network.from_time; to_time; group })
  and* churn =
    small_list
      (let+ time = quarter
       and+ pid = pid
       and+ action = oneofl Network.[ Join; Leave; Rejoin ] in
       { Network.time; pid; action })
  and* scripts = opt (list_size (return n) (small_list (oneofl [ "I(3)"; "D(1)"; "R" ])))
  and* shards = if sharded then int_range 1 8 else return 1
  and* keys = if sharded then int_range 1 256 else return Run_spec.default.keys
  and* rebalance = if sharded then opt quarter else return None
  and* soak =
    if not soak then return None
    else
      let rule =
        let* series = oneofl [ "log_len"; "queue_depth"; "latency_p99" ] in
        oneof
          [
            map (fun v -> { Obs.Alert.series; pred = Above v }) quarter;
            map (fun v -> { Obs.Alert.series; pred = Below v }) quarter;
            map (fun k -> { Obs.Alert.series; pred = Monotone_growth k }) (int_range 2 9);
            map (fun v -> { Obs.Alert.series; pred = Slo_breach v }) quarter;
          ]
      in
      let+ sample_interval = quarter and+ duration = opt quarter and+ rules = small_list rule in
      Some { Run_spec.sample_interval; duration; rules }
  in
  return
    {
      Run_spec.protocol;
      seed;
      n;
      ops;
      mean_delay;
      fifo;
      crashes;
      checkpoint_interval;
      batch_window;
      probe_interval;
      monitors;
      partitions;
      churn;
      scripts;
      shards;
      keys;
      rebalance;
      soak;
    }

let gen_parallel =
  let open QCheck2.Gen in
  let+ spec = oneofl Registry.names
  and+ seed = int_range 0 1_000_000
  and+ domains = int_range 1 8
  and+ ops = int_range 0 100_000
  and+ query_ratio = float_range 0.0 1.0
  and+ zipf = float_range 0.0 2.0
  and+ batch = int_range 1 64
  and+ flush_window = int_range 0 64
  and+ mailbox = int_range 1 4096 in
  Run_spec.Parallel
    { Run_spec.spec; seed; domains; ops; query_ratio; zipf; batch; flush_window; mailbox }

let gen_spec =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.map (fun s -> Run_spec.Sim s) (gen_sim ~sharded:false ~soak:false);
      QCheck2.Gen.map (fun s -> Run_spec.Sim s) (gen_sim ~sharded:true ~soak:false);
      QCheck2.Gen.map (fun s -> Run_spec.Sim s) (gen_sim ~sharded:false ~soak:true);
      gen_parallel;
    ]

(* Any JSON value: what a corrupted header field may hold. *)
let gen_json =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun f -> Obs.Json.Num f) (oneofl [ 0.0; 1.5; -3.0; 1e300; 7.0 ]);
        map (fun s -> Obs.Json.Str s) (oneofl [ ""; "list"; "array"; "parallel"; "uc"; "x:y" ]);
      ]
  in
  let arr = map (fun xs -> Obs.Json.Arr xs) (small_list leaf) in
  oneof [ leaf; arr; map (fun xs -> Obs.Json.Arr [ Obs.Json.Obj [ ("t", xs) ] ]) leaf ]

let decodes_without_raising h =
  match Run_spec.of_header h with Ok _ | Error _ -> true | exception _ -> false

let codec_tests =
  [
    qtest ~count:500 "of_header (to_header t) = Ok t" gen_spec (fun t ->
        Run_spec.of_header (Run_spec.to_header t) = Ok t);
    qtest ~count:300 "a truncated header decodes to Ok or Error, never raises"
      QCheck2.Gen.(pair gen_spec (int_range 0 30))
      (fun (t, keep) ->
        decodes_without_raising (List.filteri (fun i _ -> i < keep) (Run_spec.to_header t)));
    qtest ~count:500 "a corrupted field decodes to Ok or Error, never raises"
      QCheck2.Gen.(triple gen_spec (int_range 0 30) gen_json)
      (fun (t, i, j) ->
        decodes_without_raising
          (List.mapi (fun k (name, v) -> (name, if k = i then j else v)) (Run_spec.to_header t)));
    Alcotest.test_case "malformed headers give one-line errors" `Quick (fun () ->
        let h = Run_spec.to_header (Sim Run_spec.default) in
        let set k v = List.map (fun (k', v') -> (k', if k = k' then v else v')) h in
        let is_error name h =
          match Run_spec.of_header h with
          | Error msg -> Alcotest.(check bool) (name ^ ": one line") false (String.contains msg '\n')
          | Ok _ -> Alcotest.failf "%s decoded" name
        in
        is_error "empty" [];
        is_error "list core" (set "log_core" (Obs.Json.Str "list"));
        is_error "fractional n" (set "n" (Obs.Json.Num 1.5));
        is_error "unknown criterion" (set "monitors" (Obs.Json.Arr [ Obs.Json.Str "sc" ]));
        is_error "bad rule" (("sample_interval", Obs.Json.Num 1.0) :: ("rules", Obs.Json.Arr [ Obs.Json.Str "nope" ]) :: h);
        is_error "unknown engine" (("engine", Obs.Json.Str "gpu") :: h);
        is_error "parallel without spec" [ ("engine", Obs.Json.Str "parallel") ];
        match Run_spec.of_header (set "log_core" (Obs.Json.Str "list")) with
        | Error msg ->
          Alcotest.(check bool) "names the list core" true (contains_sub msg "\"list\"")
        | Ok _ -> Alcotest.fail "list core accepted");
    Alcotest.test_case "default descriptions write no shard or soak fields" `Quick (fun () ->
        let keys = List.map fst (Run_spec.to_header (Sim Run_spec.default)) in
        List.iter
          (fun k -> Alcotest.(check bool) k false (List.mem k keys))
          [ "shards"; "keys"; "rebalance"; "sample_interval"; "duration"; "rules" ]);
  ]

(* ---- the driver ---- *)

let sim ?(monitors = []) ?(crashes = []) ?(partitions = []) ?(churn = []) ?shards ?keys
    ?rebalance ?soak ?(fifo = false) protocol ~n ~ops ~seed =
  let d = Run_spec.default in
  {
    d with
    Run_spec.protocol;
    n;
    ops;
    seed;
    fifo;
    monitors;
    crashes;
    partitions;
    churn;
    shards = Option.value ~default:d.shards shards;
    keys = Option.value ~default:d.keys keys;
    rebalance;
    soak;
  }

let run_journal spec =
  let j = Obs.Journal.create () in
  match Run_driver.run ~journal:j spec with
  | Ok o -> (o, j)
  | Error msg -> Alcotest.failf "run %s: %s" spec.Run_spec.protocol msg

let sha j = Sha256.hex (Obs.Journal.to_jsonl j)

(* Replay exactly as `ucsim replay` does: decode the recorded header,
   re-run into a capture journal, require equal events and seal. *)
let replays j =
  match Run_spec.of_header (Obs.Journal.header j) with
  | Ok (Sim spec) ->
    let _, capture = run_journal spec in
    Obs.Journal.diff j capture = None
    && Obs.Journal.fingerprint j = Obs.Journal.fingerprint capture
    && Obs.Journal.fingerprint j <> None
  | Ok (Parallel _) | Error _ -> false

let pc = Obs.Monitor.[ Uc; Ec; Pc ]
let part from_time to_time group = { Network.from_time; to_time; group }
let churn time action pid = { Network.time; pid; action }

(* The journals `ucsim run ... --journal-out` writes, byte for byte;
   the literals were captured from the CLI before the driver moved
   into the library. *)
let pinned =
  [
    ( "universal n3 seed1 uc,ec,pc",
      sim "universal" ~n:3 ~ops:6 ~seed:1 ~monitors:pc,
      "432fb0822af81afd8bcf7d277f73ed5041f6d95c70545ad03c5819686d262e1d" );
    ( "universal n4 seed11 partition",
      sim "universal" ~n:4 ~ops:6 ~seed:11 ~monitors:pc ~partitions:[ part 10.0 120.0 [ 0; 1 ] ],
      "0fee9719341824184314d68326b9453063e95aef34d1d2bf4bc57f897e37f50d" );
    ( "universal n4 seed7 churn",
      sim "universal" ~n:4 ~ops:20 ~seed:7
        ~monitors:Obs.Monitor.[ Uc; Ec ]
        ~churn:[ churn 20.0 Join 3; churn 30.0 Leave 2; churn 60.0 Rejoin 2 ]
        ~partitions:[ part 40.0 80.0 [ 1 ] ],
      "29ab690ef101a5bfbbc83b597597182e79609aefa9383f28b3ab7eeeb9f9e69d" );
    ( "pipelined n3 seed1",
      sim "pipelined" ~n:3 ~ops:4 ~seed:1 ~monitors:pc,
      "f8b8b1a0b7596312eee0fd21e7830ad8e015f4fb626ac6b509a039816aa4057a" );
    ( "counter n3 seed5",
      sim "counter" ~n:3 ~ops:6 ~seed:5,
      "a9f64204b8823e61aeb75848f5dbcf90e3b492b8101369e0a9576dd110f06e86" );
    ( "register n3 seed5",
      sim "register" ~n:3 ~ops:6 ~seed:5,
      "ed3e9ea625a770ba22d43b8e754510b9af6b0481380410e55c25d063d616555b" );
    ( "lwwmemory n3 seed5",
      sim "lwwmemory" ~n:3 ~ops:6 ~seed:5,
      "e01f420ee009406bf726b7ac7f625573db93e705ae73c7b52e2e153234791666" );
    ( "universal-bank n3 seed5 crash",
      sim "universal-bank" ~n:3 ~ops:6 ~seed:5 ~crashes:[ (50.0, 2) ],
      "78d984601298e0299ad0ea9290977522c5933641ef8428fb6d2290d5d410b8af" );
    ( "sharded 2 shards rebalancing",
      sim "sharded" ~n:3 ~ops:30 ~seed:11 ~shards:2 ~keys:16 ~rebalance:15.0
        ~monitors:Obs.Monitor.[ Uc; Ec ],
      "45b4c7a686c7b5f1f28217d5281f486d26bd32acab8f9c42290fa24b4bc751f6" );
    ( "pipelined late joiner",
      sim "pipelined" ~n:2 ~ops:1 ~seed:3 ~monitors:Obs.Monitor.[ Pc ]
        ~churn:[ churn 30.0 Join 1 ],
      "386240ec68f10cef39e193618472ccbade703c3df8ea4c4d9b5d36bc0fee983e" );
  ]

let soak_spec =
  sim "universal" ~n:3 ~ops:60 ~seed:42
    ~soak:
      {
        Run_spec.sample_interval = 20.0;
        duration = None;
        rules = [ Obs.Alert.rule_of_string "growth:log_len:4" ];
      }

let driver_tests =
  List.map
    (fun (name, spec, digest) ->
      Alcotest.test_case ("pinned journal: " ^ name) `Quick (fun () ->
          let _, j = run_journal spec in
          Alcotest.(check string) "sha256" digest (sha j);
          Alcotest.(check bool) "replays" true (replays j)))
    pinned
  @ [
      Alcotest.test_case "pinned journal: soak with a planted growth alert" `Quick (fun () ->
          let o, j = run_journal soak_spec in
          Alcotest.(check bool) "alert fired" true (o.Run_driver.alerts_fired > 0);
          Alcotest.(check string) "sha256"
            "5fde3f5bdef0333b8e388e7ad31488e2a4afa809d323f66cf4c77b9eab64a611" (sha j);
          Alcotest.(check bool) "replays with its alert stream" true (replays j));
      Alcotest.test_case "pinned journal: shrunk late-joiner violation" `Quick (fun () ->
          let _, spec, _ = List.nth pinned 9 in
          let _, j = run_journal spec in
          let recorded =
            match Run_spec.of_header (Obs.Journal.header j) with
            | Ok (Sim s) -> s
            | _ -> Alcotest.fail "flagged header does not decode"
          in
          match Run_driver.shrink recorded with
          | Error msg -> Alcotest.fail msg
          | Ok s ->
            Alcotest.(check int) "6 events" 6 s.Run_driver.events;
            Alcotest.(check string) "sha256"
              "a36f2b63235acfc43871eae7dd5cbd75a55aa901e72583b7c0fefb8b1e596309"
              (sha s.Run_driver.journal);
            Alcotest.(check bool) "minimized journal replays" true (replays s.Run_driver.journal));
      Alcotest.test_case "--crash is honoured by every non-set object" `Quick (fun () ->
          List.iter
            (fun protocol ->
              let n = 3 in
              let _, j = run_journal (sim protocol ~n ~ops:20 ~seed:5 ~crashes:[ (50.0, n - 1) ]) in
              let crashed =
                List.exists
                  (function Obs.Journal.Crash { pid; _ } -> pid = n - 1 | _ -> false)
                  (Obs.Journal.events j)
              in
              Alcotest.(check bool) (protocol ^ " journals the crash of pid n-1") true crashed;
              Alcotest.(check bool) (protocol ^ " replays") true (replays j))
            [ "counter"; "fastcounter"; "pncounter"; "register"; "lwwreg"; "abd"; "lwwmemory" ]);
      Alcotest.test_case "a one-shard run records non-default keys and replays"
        `Quick (fun () ->
          let _, j = run_journal (sim "sharded" ~n:3 ~ops:10 ~seed:2 ~shards:1 ~keys:16) in
          Alcotest.(check bool) "keys in the header" true
            (List.assoc_opt "keys" (Obs.Journal.header j) = Some (Obs.Json.Num 16.0));
          Alcotest.(check bool) "replays" true (replays j));
      Alcotest.test_case "--fifo is honoured by lwwmemory" `Quick (fun () ->
          (* FIFO channels hold a later frame behind an earlier one on
             the same link, so the delivery schedule moves *)
          let _, plain = run_journal (sim "lwwmemory" ~n:3 ~ops:20 ~seed:5) in
          let _, fifo = run_journal (sim "lwwmemory" ~n:3 ~ops:20 ~seed:5 ~fifo:true) in
          Alcotest.(check bool) "schedule differs" true (Obs.Journal.diff plain fifo <> None);
          Alcotest.(check bool) "replays" true (replays fifo));
      Alcotest.test_case "gc without --fifo is rejected before running" `Quick (fun () ->
          (match Run_driver.run (sim "gc" ~n:3 ~ops:5 ~seed:1) with
          | Error msg ->
            Alcotest.(check bool) "names FIFO" true (contains_sub msg "FIFO");
            Alcotest.(check bool) "one line" false (String.contains msg '\n')
          | Ok _ -> Alcotest.fail "gc ran without FIFO channels");
          match Run_driver.run (sim "gc" ~n:3 ~ops:5 ~seed:1 ~fifo:true) with
          | Ok o -> Alcotest.(check bool) "converges with FIFO" true o.Run_driver.converged
          | Error msg -> Alcotest.fail msg);
      Alcotest.test_case "--check runs the checkers on every object" `Quick (fun () ->
          List.iter
            (fun protocol ->
              match
                Run_driver.run
                  ~outputs:{ Run_driver.quiet with check = true; trace = true }
                  (sim protocol ~n:2 ~ops:3 ~seed:2)
              with
              | Ok _ -> ()
              | Error msg -> Alcotest.failf "%s: %s" protocol msg)
            [ "counter"; "register"; "lwwmemory"; "universal-queue" ]);
      Alcotest.test_case "explicit scripts need a protocol with a script codec" `Quick (fun () ->
          let spec = { (sim "counter" ~n:1 ~ops:1 ~seed:1) with scripts = Some [ [ "R" ] ] } in
          match Run_driver.run spec with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "counter accepted set scripts");
    ]

let tests = codec_tests @ driver_tests
