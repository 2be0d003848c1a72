(* uc_sim: engine ordering, network delivery semantics, crash and
   partition behaviour, metric accounting. *)

open Helpers

let engine_tests =
  [
    Alcotest.test_case "events fire in time order" `Quick (fun () ->
        let e = Engine.create () in
        let order = ref [] in
        Engine.schedule e ~delay:5.0 (fun () -> order := 5 :: !order);
        Engine.schedule e ~delay:1.0 (fun () -> order := 1 :: !order);
        Engine.schedule e ~delay:3.0 (fun () -> order := 3 :: !order);
        Engine.run e;
        Alcotest.(check (list int)) "sorted" [ 5; 3; 1 ] !order);
    Alcotest.test_case "ties break by insertion order" `Quick (fun () ->
        let e = Engine.create () in
        let order = ref [] in
        Engine.schedule e ~delay:1.0 (fun () -> order := `A :: !order);
        Engine.schedule e ~delay:1.0 (fun () -> order := `B :: !order);
        Engine.run e;
        Alcotest.(check bool) "A before B" true (!order = [ `B; `A ]));
    Alcotest.test_case "clock advances to event times" `Quick (fun () ->
        let e = Engine.create () in
        let seen = ref 0.0 in
        Engine.schedule e ~delay:7.5 (fun () -> seen := Engine.now e);
        Engine.run e;
        Alcotest.(check (float 1e-9)) "time" 7.5 !seen);
    Alcotest.test_case "nested scheduling works" `Quick (fun () ->
        let e = Engine.create () in
        let hits = ref 0 in
        Engine.schedule e ~delay:1.0 (fun () ->
            incr hits;
            Engine.schedule e ~delay:1.0 (fun () -> incr hits));
        Engine.run e;
        Alcotest.(check int) "both ran" 2 !hits);
    Alcotest.test_case "run ~until stops early" `Quick (fun () ->
        let e = Engine.create () in
        let hits = ref 0 in
        Engine.schedule e ~delay:1.0 (fun () -> incr hits);
        Engine.schedule e ~delay:100.0 (fun () -> incr hits);
        Engine.run ~until:10.0 e;
        Alcotest.(check int) "one ran" 1 !hits;
        Alcotest.(check int) "one pending" 1 (Engine.pending e));
    Alcotest.test_case "negative and infinite delays are rejected" `Quick (fun () ->
        let e = Engine.create () in
        let msg = "Engine.schedule: delay must be finite and non-negative" in
        Alcotest.check_raises "negative" (Invalid_argument msg) (fun () ->
            Engine.schedule e ~delay:(-1.0) ignore);
        Alcotest.check_raises "infinite" (Invalid_argument msg) (fun () ->
            Engine.schedule e ~delay:Float.infinity ignore));
    Alcotest.test_case "schedule_at in the past fires now" `Quick (fun () ->
        let e = Engine.create () in
        let at = ref (-1.0) in
        Engine.schedule e ~delay:5.0 (fun () ->
            Engine.schedule_at e ~time:1.0 (fun () -> at := Engine.now e));
        Engine.run e;
        Alcotest.(check (float 1e-9)) "not in the past" 5.0 !at);
  ]

(* A network harness capturing deliveries. *)
let net_harness ?(fifo = false) ?(partitions = []) ?envelope ~delay ~seed n =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let log = ref [] in
  let net =
    Network.create ~engine ~rng:(Prng.create seed) ~metrics ~n ~fifo ~partitions
      ?envelope ~delay
      ~wire_size:(fun (_ : int) -> 4)
      ~deliver:(fun ~dst ~src msg -> log := (Engine.now engine, src, dst, msg) :: !log)
      ()
  in
  (engine, metrics, net, log)

let network_tests =
  [
    Alcotest.test_case "messages arrive within the delay bounds" `Quick (fun () ->
        let engine, _, net, log =
          net_harness ~delay:(Network.Uniform { lo = 2.0; hi = 4.0 }) ~seed:1 2
        in
        for i = 1 to 20 do
          Network.send net ~src:0 ~dst:1 i
        done;
        Engine.run engine;
        Alcotest.(check int) "all delivered" 20 (List.length !log);
        List.iter
          (fun (t, _, _, _) -> Alcotest.(check bool) "bounds" true (t >= 2.0 && t <= 4.0))
          !log);
    Alcotest.test_case "fifo preserves per-channel order" `Quick (fun () ->
        let engine, _, net, log =
          net_harness ~fifo:true ~delay:(Network.Uniform { lo = 1.0; hi = 50.0 }) ~seed:3 2
        in
        for i = 1 to 30 do
          Network.send net ~src:0 ~dst:1 i
        done;
        Engine.run engine;
        let payloads = List.rev_map (fun (_, _, _, m) -> m) !log in
        Alcotest.(check (list int)) "in order" (List.init 30 (fun i -> i + 1)) payloads);
    Alcotest.test_case "without fifo, reordering happens" `Quick (fun () ->
        let engine, _, net, log =
          net_harness ~delay:(Network.Uniform { lo = 1.0; hi = 50.0 }) ~seed:3 2
        in
        for i = 1 to 30 do
          Network.send net ~src:0 ~dst:1 i
        done;
        Engine.run engine;
        let payloads = List.rev_map (fun (_, _, _, m) -> m) !log in
        Alcotest.(check bool) "reordered" true
          (payloads <> List.init 30 (fun i -> i + 1)));
    Alcotest.test_case "broadcast reaches everyone but the sender" `Quick (fun () ->
        let engine, metrics, net, log = net_harness ~delay:(Network.Constant 1.0) ~seed:1 4 in
        Network.broadcast net ~src:2 7;
        Engine.run engine;
        Alcotest.(check int) "three copies" 3 (List.length !log);
        Alcotest.(check bool) "not to self" true
          (List.for_all (fun (_, _, dst, _) -> dst <> 2) !log);
        Alcotest.(check int) "bytes counted" 12 metrics.Metrics.bytes_sent);
    Alcotest.test_case "messages to a crashed process are dropped" `Quick (fun () ->
        let engine, metrics, net, log = net_harness ~delay:(Network.Constant 1.0) ~seed:1 2 in
        Network.crash net 1;
        Network.send net ~src:0 ~dst:1 1;
        Engine.run engine;
        Alcotest.(check int) "no delivery" 0 (List.length !log);
        Alcotest.(check int) "dropped" 1 metrics.Metrics.messages_dropped);
    Alcotest.test_case "a crashed process cannot send" `Quick (fun () ->
        let engine, _, net, log = net_harness ~delay:(Network.Constant 1.0) ~seed:1 2 in
        Network.crash net 0;
        Network.send net ~src:0 ~dst:1 1;
        Engine.run engine;
        Alcotest.(check int) "no delivery" 0 (List.length !log));
    Alcotest.test_case "alive lists the non-crashed" `Quick (fun () ->
        let _, _, net, _ = net_harness ~delay:(Network.Constant 1.0) ~seed:1 3 in
        Network.crash net 1;
        Alcotest.(check (list int)) "alive" [ 0; 2 ] (Network.alive net));
    Alcotest.test_case "partition holds messages until it heals" `Quick (fun () ->
        let partitions = [ { Network.from_time = 0.0; to_time = 100.0; group = [ 0 ] } ] in
        let engine, _, net, log = net_harness ~partitions ~delay:(Network.Constant 1.0) ~seed:1 2 in
        Network.send net ~src:0 ~dst:1 1;
        Engine.run engine;
        (match !log with
        | [ (t, _, _, _) ] -> Alcotest.(check (float 1e-9)) "after heal" 101.0 t
        | _ -> Alcotest.fail "expected one delivery");
        Alcotest.(check bool) "reliable" true (List.length !log = 1));
    Alcotest.test_case "same-side traffic crosses a partition window" `Quick (fun () ->
        let partitions = [ { Network.from_time = 0.0; to_time = 100.0; group = [ 0; 1 ] } ] in
        let engine, _, net, log = net_harness ~partitions ~delay:(Network.Constant 1.0) ~seed:1 3 in
        Network.send net ~src:0 ~dst:1 1;
        Engine.run engine;
        match !log with
        | [ (t, _, _, _) ] -> Alcotest.(check (float 1e-9)) "immediate" 1.0 t
        | _ -> Alcotest.fail "expected one delivery");
    qtest "draw_delay respects each model's support" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let c = Network.draw_delay rng (Network.Constant 3.0) in
        let u = Network.draw_delay rng (Network.Uniform { lo = 1.0; hi = 2.0 }) in
        let e = Network.draw_delay rng (Network.Exponential { mean = 5.0 }) in
        let p = Network.draw_delay rng (Network.Pareto { scale = 2.0; shape = 1.5 }) in
        c = 3.0 && u >= 1.0 && u <= 2.0 && e >= 0.0 && p >= 2.0);
  ]

let batch_tests =
  [
    Alcotest.test_case "send_batch delivers together and in order" `Quick (fun () ->
        let engine, metrics, net, log =
          net_harness ~delay:(Network.Uniform { lo = 1.0; hi = 50.0 }) ~seed:7 2
        in
        Network.send_batch net ~src:0 ~dst:1 [ 1; 2; 3 ];
        Engine.run engine;
        (* One frame: a single delay draw, so even a reordering network
           hands the batch over atomically and in order. *)
        let deliveries = List.rev !log in
        Alcotest.(check (list int)) "in order" [ 1; 2; 3 ]
          (List.map (fun (_, _, _, m) -> m) deliveries);
        let times = List.map (fun (t, _, _, _) -> t) deliveries in
        Alcotest.(check bool) "one arrival instant" true
          (List.for_all (fun t -> t = List.hd times) times);
        Alcotest.(check int) "counted per message" 3 metrics.Metrics.messages_sent;
        Alcotest.(check int) "one multi-message frame" 1 metrics.Metrics.batches_sent);
    Alcotest.test_case "singleton and empty sends are not batches" `Quick (fun () ->
        let engine, metrics, net, log =
          net_harness ~delay:(Network.Constant 1.0) ~seed:1 2
        in
        Network.send net ~src:0 ~dst:1 1;
        Network.send_batch net ~src:0 ~dst:1 [ 2 ];
        Network.send_batch net ~src:0 ~dst:1 [];
        Engine.run engine;
        Alcotest.(check int) "two deliveries" 2 (List.length !log);
        Alcotest.(check int) "no batch counted" 0 metrics.Metrics.batches_sent);
    Alcotest.test_case "envelope is charged once per frame" `Quick (fun () ->
        let engine, metrics, net, _ =
          net_harness ~envelope:10 ~delay:(Network.Constant 1.0) ~seed:1 3
        in
        (* Two frames of three 4-byte messages: 2*(10 + 12) bytes. *)
        Network.broadcast_batch net ~src:0 [ 1; 2; 3 ];
        Engine.run engine;
        Alcotest.(check int) "bytes" (2 * (10 + 12)) metrics.Metrics.bytes_sent;
        Alcotest.(check int) "two frames" 2 metrics.Metrics.batches_sent;
        Alcotest.(check int) "six messages" 6 metrics.Metrics.messages_sent);
    Alcotest.test_case "a batch to a crashed process drops whole" `Quick (fun () ->
        let engine, metrics, net, log =
          net_harness ~delay:(Network.Constant 1.0) ~seed:1 2
        in
        Network.crash net 1;
        Network.send_batch net ~src:0 ~dst:1 [ 1; 2; 3 ];
        Engine.run engine;
        Alcotest.(check int) "no delivery" 0 (List.length !log);
        Alcotest.(check int) "all dropped" 3 metrics.Metrics.messages_dropped);
  ]

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let metrics_tests =
  [
    Alcotest.test_case "pp prints batches and mean delivery latency" `Quick
      (fun () ->
        let m = Metrics.create () in
        m.Metrics.messages_sent <- 3;
        m.Metrics.messages_delivered <- 2;
        m.Metrics.delivery_latency_sum <- 5.0;
        m.Metrics.batches_sent <- 4;
        let s = Format.asprintf "%a" Metrics.pp m in
        Alcotest.(check bool) "batches" true (contains s "batches=4");
        Alcotest.(check bool) "mean latency" true
          (contains s "mean_delivery=2.500"));
    Alcotest.test_case "mean delivery latency guards division by zero" `Quick
      (fun () ->
        let m = Metrics.create () in
        Alcotest.(check (float 0.0)) "empty run" 0.0
          (Metrics.mean_delivery_latency m);
        let s = Format.asprintf "%a" Metrics.pp m in
        Alcotest.(check bool) "no nan in pp" true
          (not (contains s "nan")));
  ]

module P = Generic.Make (Set_spec)
module R = Runner.Make (P)

let runner_tests =
  [
    Alcotest.test_case "metrics add up" `Quick (fun () ->
        let workload =
          [|
            [ Protocol.Invoke_update (Set_spec.Insert 1); Protocol.Invoke_query Set_spec.Read ];
            [ Protocol.Invoke_update (Set_spec.Insert 2) ];
          |]
        in
        let config = { (R.default_config ~n:2 ~seed:1) with R.final_read = Some Set_spec.Read } in
        let r = R.run config ~workload in
        let m = r.R.metrics in
        Alcotest.(check int) "updates" 2 m.Metrics.updates_invoked;
        (* one scripted query + two ω reads *)
        Alcotest.(check int) "queries" 3 m.Metrics.queries_invoked;
        (* each update broadcast to one other process *)
        Alcotest.(check int) "messages" 2 m.Metrics.messages_sent;
        Alcotest.(check int) "no stalls" 0 m.Metrics.ops_incomplete);
    Alcotest.test_case "history mirrors the workload structure" `Quick (fun () ->
        let workload =
          [|
            [ Protocol.Invoke_update (Set_spec.Insert 1); Protocol.Invoke_query Set_spec.Read ];
            [];
          |]
        in
        let config = { (R.default_config ~n:2 ~seed:1) with R.final_read = Some Set_spec.Read } in
        let r = R.run config ~workload in
        Alcotest.(check int) "p0 has 3 events" 3
          (List.length (History.process_events r.R.history 0));
        Alcotest.(check int) "p1 has its ω read" 1
          (List.length (History.process_events r.R.history 1)));
    Alcotest.test_case "crashed processes stop issuing and reading" `Quick (fun () ->
        let workload =
          Array.make 2 (List.init 20 (fun i -> Protocol.Invoke_update (Set_spec.Insert i)))
        in
        let config =
          {
            (R.default_config ~n:2 ~seed:1) with
            R.final_read = Some Set_spec.Read;
            crashes = [ (0.5, 1) ];
          }
        in
        let r = R.run config ~workload in
        Alcotest.(check int) "only p0 answers" 1 (List.length r.R.final_outputs);
        Alcotest.(check bool) "p0 is the survivor" true (fst (List.hd r.R.final_outputs) = 0));
    Alcotest.test_case "workload width must match n" `Quick (fun () ->
        let config = R.default_config ~n:3 ~seed:1 in
        Alcotest.check_raises "width" (Invalid_argument "Runner.run: workload width must match config.n")
          (fun () -> ignore (R.run config ~workload:[| [] |])));
    qtest ~count:25 "same seed, same run" seed_gen (fun seed ->
        let workload =
          [|
            List.init 10 (fun i -> Protocol.Invoke_update (Set_spec.Insert i));
            List.init 10 (fun i -> Protocol.Invoke_update (Set_spec.Delete i));
          |]
        in
        let config = { (R.default_config ~n:2 ~seed) with R.final_read = Some Set_spec.Read } in
        let a = R.run config ~workload and b = R.run config ~workload in
        a.R.metrics.Metrics.bytes_sent = b.R.metrics.Metrics.bytes_sent
        && a.R.sim_duration = b.R.sim_duration
        && List.for_all2
             (fun (p, o) (p', o') -> p = p' && Set_spec.equal_output o o')
             a.R.final_outputs b.R.final_outputs);
    qtest ~count:40 "a batching window preserves convergence and certificates"
      seed_gen
      (fun seed ->
        let workload =
          [|
            List.init 12 (fun i -> Protocol.Invoke_update (Set_spec.Insert i));
            List.init 12 (fun i ->
                Protocol.Invoke_update
                  (if i mod 3 = 0 then Set_spec.Delete i
                   else Set_spec.Insert (100 + i)));
            [];
          |]
        in
        let config =
          {
            (R.default_config ~n:3 ~seed) with
            R.final_read = Some Set_spec.Read;
            think = Network.Constant 0.5;
            batch_window = Some 2.0;
            envelope = 8;
          }
        in
        let r = R.run config ~workload in
        (* Back-to-back updates within the 2.0 window must have shared
           frames somewhere in the run, and batching must change no
           protocol-level outcome. *)
        r.R.converged && r.R.certificates_agree
        && r.R.metrics.Metrics.batches_sent > 0
        && List.length r.R.final_outputs = 3);
  ]

(* The event queue against a list model: pending events kept in
   scheduling order, the next one being the first with the least
   time, so execution order is a stable sort by (time clamped to the
   clock at scheduling, seq). Random schedules mix equal times,
   [schedule_at] in the past, relative delays, thunks that schedule
   further events, single [step]s and [run ~until] cut-offs. *)
type ev = { at : int; relative : bool; kids : ev list }

type cmd = Add of ev | Step | Run of int option

let gen_ev =
  QCheck2.Gen.(
    fix
      (fun self depth ->
        let* at = int_range (-2) 8 and* relative = bool in
        let* kids =
          if depth = 0 then return [] else list_size (int_range 0 2) (self (depth - 1))
        in
        return { at; relative; kids })
      2)

let gen_cmds =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (frequency
         [
           (5, map (fun e -> Add e) gen_ev);
           (2, return Step);
           (1, map (fun u -> Run u) (option (int_range 0 10)));
         ]))

let rec show_ev e =
  Printf.sprintf "{%s%d [%s]}" (if e.relative then "+" else "@") e.at
    (String.concat "; " (List.map show_ev e.kids))

let show_cmd = function
  | Add e -> "add " ^ show_ev e
  | Step -> "step"
  | Run None -> "run"
  | Run (Some u) -> Printf.sprintf "run ~until:%d" u

module Queue_model = struct
  type t = {
    mutable clock : float;
    mutable pending : (float * int * ev) list;  (** in scheduling order *)
    mutable next : int;
  }

  let create () = { clock = 0.0; pending = []; next = 0 }

  let add m e =
    let time =
      if e.relative then m.clock +. float_of_int (abs e.at) else float_of_int e.at
    in
    m.pending <- m.pending @ [ (Float.max time m.clock, m.next, e) ];
    m.next <- m.next + 1

  let next_time m =
    List.fold_left (fun acc (t, _, _) -> Float.min acc t) Float.infinity m.pending

  (* Pop the first pending event with the least time, then run it:
     record (id, clock) and schedule its children. *)
  let step m trace =
    match m.pending with
    | [] -> false
    | _ ->
      let least = next_time m in
      let ((time, id, e) as first) = List.find (fun (t, _, _) -> t = least) m.pending in
      m.pending <- List.filter (fun x -> x != first) m.pending;
      m.clock <- time;
      trace := (id, time) :: !trace;
      List.iter (add m) e.kids;
      true

  let run m ~until trace =
    while m.pending <> [] && next_time m <= until do
      ignore (step m trace : bool)
    done
end

let engine_model_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"event order matches a stable-sort model"
         ~print:(fun cmds -> String.concat "\n" (List.map show_cmd cmds))
         gen_cmds
         (fun cmds ->
           let e = Engine.create () and m = Queue_model.create () in
           let trace = ref [] and expect = ref [] in
           let next_id = ref 0 in
           let rec add ev =
             let id = !next_id in
             incr next_id;
             let thunk () =
               trace := (id, Engine.now e) :: !trace;
               List.iter add ev.kids
             in
             if ev.relative then Engine.schedule e ~delay:(float_of_int (abs ev.at)) thunk
             else Engine.schedule_at e ~time:(float_of_int ev.at) thunk
           in
           List.for_all
             (fun cmd ->
               let agree =
                 match cmd with
                 | Add ev ->
                   add ev;
                   Queue_model.add m ev;
                   true
                 | Step -> Engine.step e = Queue_model.step m expect
                 | Run until ->
                   let until = Option.fold ~none:Float.infinity ~some:float_of_int until in
                   Engine.run ~until e;
                   Queue_model.run m ~until expect;
                   true
               in
               agree && !trace = !expect
               && Engine.pending e = List.length m.Queue_model.pending
               && Engine.now e = m.Queue_model.clock)
             cmds));
    Alcotest.test_case "executed events are not retained" `Quick (fun () ->
        (* Each thunk captures a fresh block only it references; once
           the thunk has run, the still-reachable engine must not keep
           it (or its block) alive. *)
        let e = Engine.create () in
        let w = Weak.create 3 in
        let[@inline never] schedule_captured i ~delay =
          let v = Bytes.make 64 'x' in
          Weak.set w i (Some v);
          Engine.schedule e ~delay (fun () -> ignore (Sys.opaque_identity (Bytes.length v)))
        in
        schedule_captured 0 ~delay:3.0;
        schedule_captured 1 ~delay:1.0;
        Engine.schedule e ~delay:2.0 (fun () -> schedule_captured 2 ~delay:0.5);
        Engine.run e;
        Stdlib.Gc.full_major ();
        for i = 0 to 2 do
          Alcotest.(check bool) (Printf.sprintf "block %d collected" i) false (Weak.check w i)
        done;
        Alcotest.(check int) "engine still reachable and drained" 0
          (Engine.pending (Sys.opaque_identity e)));
    Alcotest.test_case "schedule_at and step allocate nothing at depth 16k" `Quick
      (fun () ->
        let e = Engine.create () in
        let depth = 16_384 in
        for i = 1 to depth do
          Engine.schedule_at e ~time:(1e9 +. float_of_int (i mod 97)) ignore
        done;
        (* Each event lands below the whole backlog, so it sifts from
           the bottom to the root and back down through every level.
           The times are boxed once here, outside the measurement. *)
        let times lo = List.init 2_000 (fun i -> float_of_int (lo + i)) in
        let thunk () = () in
        let rec go = function
          | [] -> ()
          | time :: rest ->
            Engine.schedule_at e ~time thunk;
            ignore (Engine.step e : bool);
            go rest
        in
        let warm = times 1 and measured = times 3_000 in
        go warm;
        let before = Stdlib.Gc.minor_words () in
        go measured;
        let words = Stdlib.Gc.minor_words () -. before in
        Alcotest.(check int) "depth held" depth (Engine.pending e);
        Alcotest.(check (float 0.0)) "minor words" 0.0 words);
    Alcotest.test_case "broadcast allocates a bounded frame per peer" `Quick (fun () ->
        (* Eight replicas, no obs, no partitions: the stamped frame is
           shared by the seven peers, so each destination costs only its
           delay draw and its delivery event. *)
        let engine, _, net, _ = net_harness ~delay:(Network.Exponential { mean = 5.0 }) ~seed:3 8 in
        let rounds = 200 in
        let burst () =
          for i = 1 to rounds do
            Network.broadcast net ~src:(i mod 8) i
          done
        in
        burst ();
        Engine.run engine;
        let before = Stdlib.Gc.minor_words () in
        burst ();
        let words = Stdlib.Gc.minor_words () -. before in
        Engine.run engine;
        (* 14.86 here: the delivery closure (10 words), the delay draw
           and the arrival time (2 each), and a seventh of the frame.
           Before frames were shared and events unboxed it was 56. *)
        let per_dest = words /. float_of_int (rounds * 7) in
        Alcotest.(check bool) (Printf.sprintf "%.2f words per destination <= 15" per_dest)
          true (per_dest <= 15.0));
  ]

let tests =
  engine_tests @ network_tests @ batch_tests @ metrics_tests @ runner_tests
  @ engine_model_tests
