(* The flight recorder in isolation: the merge is a faithful linear
   extension (nothing dropped, nothing reordered within a domain, sends
   before their delivers), the Lamport/sequence stamping follows the
   documented discipline, a recorded-then-merged journal is
   byte-pinnable under a deterministic clock, and a planted consistency
   violation is flagged identically by the online monitor and the batch
   checker. *)

open Helpers
module R = Obs.Recorder
module T_counter = Throughput.Bench (Counter_spec)
module Uc_batch = Check_uc.Make (Counter_spec)

(* A deterministic wall clock: 0.0, 0.5, 1.0, ... per record. *)
let counter_clock () =
  let t = ref (-0.5) in
  fun () ->
    t := !t +. 0.5;
    !t

(* ----------------------- stamping discipline ----------------------- *)

let lamport_discipline () =
  let r = R.create ~now:(counter_clock ()) ~domains:2 () in
  let h0 = R.handle r 0 and h1 = R.handle r 1 in
  R.invoke_update h0;
  let lam = R.send h0 ~dst:1 ~count:1 ~bytes:8 in
  (* Two records on domain 0, clock bumped on each: the send carries
     the second stamp. *)
  Alcotest.(check int) "send stamp" 2 lam;
  (* Domain 1 is behind; the deliver must jump past the frame stamp. *)
  R.deliver h1 ~src:0 ~count:1 ~frame_lamport:lam;
  R.invoke_query h1 ~omega:true;
  Alcotest.(check int) "all records kept" 4 (R.recorded r);
  match R.events r with
  | [
      R.Invoke_update { lamport = ul; wall = uw; _ };
      R.Send { lamport = sl; _ };
      R.Deliver { lamport = dl; dseq; _ };
      R.Invoke_query { lamport = ql; wall = qw; _ };
    ] ->
    Alcotest.(check int) "update first" 1 ul;
    Alcotest.(check int) "send second" 2 sl;
    Alcotest.(check bool) "deliver after send" true (dl > sl);
    Alcotest.(check int) "deliver = max+1" 3 dl;
    Alcotest.(check int) "first delivery seq" 0 dseq;
    Alcotest.(check int) "receiver program order" 4 ql;
    Alcotest.(check (float 1e-9)) "clock injected" 0.0 uw;
    Alcotest.(check (float 1e-9)) "clock ticks" 1.5 qw
  | evs ->
    Alcotest.fail (Printf.sprintf "unexpected stream of %d" (List.length evs))

let chunk_roll () =
  (* chunk = 2 forces a fresh chunk every other record. *)
  let r = R.create ~chunk:2 ~domains:1 () in
  let h = R.handle r 0 in
  for _ = 1 to 7 do
    R.invoke_update h
  done;
  Alcotest.(check int) "recorded across chunks" 7 (R.recorded r);
  let evs = R.events r in
  Alcotest.(check int) "decoded across chunks" 7 (List.length evs);
  List.iteri
    (fun i ev ->
      match ev with
      | R.Invoke_update { seq; lamport; _ } ->
        Alcotest.(check int) "seq in order" i seq;
        Alcotest.(check int) "lamport in order" (i + 1) lamport
      | _ -> Alcotest.fail "kind corrupted by chunk roll")
    evs

(* ------------------- no-drop / no-reorder property ------------------ *)

(* Mirror of what a schedule appended, per domain, in program order. *)
type mirror =
  | MU
  | MQ of bool
  | MS of int * int * int  (* dst, count, bytes *)
  | MD of int * int  (* src, count *)
  | MSt of int

let mirror_of_event = function
  | R.Invoke_update _ -> MU
  | R.Invoke_query { omega; _ } -> MQ omega
  | R.Send { dst; count; bytes; _ } -> MS (dst, count, bytes)
  | R.Deliver { src; count; _ } -> MD (src, count)
  | R.Stall { dst; _ } -> MSt dst

(* Drive one recorder through a random single-threaded interleaving of
   [domains] handles: sends enqueue their frame stamp into a per
   [(src, dst)] FIFO, delivers pop it — exactly the engine's mailbox
   shape. Returns the per-domain mirrors in program order. *)
let random_schedule rng ~domains ~steps r =
  let mirrors = Array.make domains [] in
  let frames = Array.make_matrix domains domains (Queue.create ()) in
  for src = 0 to domains - 1 do
    for dst = 0 to domains - 1 do
      frames.(src).(dst) <- Queue.create ()
    done
  done;
  let push pid m = mirrors.(pid) <- m :: mirrors.(pid) in
  for _ = 1 to steps do
    let pid = Prng.int rng domains in
    let h = R.handle r pid in
    match Prng.int rng 5 with
    | 0 ->
      R.invoke_update h;
      push pid MU
    | 1 ->
      let omega = Prng.bool rng in
      R.invoke_query h ~omega;
      push pid (MQ omega)
    | 2 when domains > 1 ->
      let dst = (pid + 1 + Prng.int rng (domains - 1)) mod domains in
      let count = 1 + Prng.int rng 3 in
      let bytes = Prng.int rng 64 in
      let lam = R.send h ~dst ~count ~bytes in
      Queue.push (lam, count) frames.(pid).(dst);
      push pid (MS (dst, count, bytes))
    | 3 ->
      (* Deliver the oldest pending frame addressed to [pid], if any. *)
      let src =
        let rec find s =
          if s >= domains then None
          else if s <> pid && not (Queue.is_empty frames.(s).(pid)) then Some s
          else find (s + 1)
        in
        find 0
      in
      (match src with
       | None ->
         R.invoke_update h;
         push pid MU
       | Some src ->
         let lam, count = Queue.pop frames.(src).(pid) in
         R.deliver h ~src ~count ~frame_lamport:lam;
         push pid (MD (src, count)))
    | _ ->
      let dst = Prng.int rng domains in
      R.stall h ~dst;
      push pid (MSt dst)
  done;
  Array.map List.rev mirrors

let sort_key = function
  | R.Invoke_update { lamport; pid; seq; _ }
  | R.Invoke_query { lamport; pid; seq; _ }
  | R.Send { lamport; pid; seq; _ }
  | R.Deliver { lamport; pid; seq; _ }
  | R.Stall { lamport; pid; seq; _ } ->
    (lamport, pid, seq)

let event_seq ev =
  let _, _, s = sort_key ev in
  s

let merge_is_faithful seed =
  let rng = Prng.create seed in
  let domains = 2 + Prng.int rng 3 in
  let steps = 20 + Prng.int rng 120 in
  (* Tiny chunks so every run crosses several chunk boundaries. *)
  let r = R.create ~chunk:3 ~domains () in
  let mirrors = random_schedule rng ~domains ~steps r in
  let evs = R.events r in
  (* Nothing dropped. *)
  List.length evs = steps
  && R.recorded r = steps
  (* Merge order is (lamport, pid, seq), strictly increasing. *)
  && (let rec sorted = function
        | a :: (b :: _ as rest) -> sort_key a < sort_key b && sorted rest
        | _ -> true
      in
      sorted evs)
  (* Per-domain projection = program order: seq contiguous from 0,
     lamport strictly increasing, payloads equal to the mirror. *)
  && (let ok = ref true in
      for pid = 0 to domains - 1 do
        let own = List.filter (fun e -> R.event_pid e = pid) evs in
        let seq_ok =
          List.mapi (fun i _ -> i) own = List.map event_seq own
        in
        let lam_ok =
          let rec up = function
            | a :: (b :: _ as rest) ->
              R.event_lamport a < R.event_lamport b && up rest
            | _ -> true
          in
          up own
        in
        ok :=
          !ok && seq_ok && lam_ok
          && List.map mirror_of_event own = mirrors.(pid)
      done;
      !ok)
  (* Causality: the i-th send src→dst precedes the i-th deliver of a
     frame from src at dst, for every pair. *)
  && (let ok = ref true in
      for src = 0 to domains - 1 do
        for dst = 0 to domains - 1 do
          let sends = ref 0 and delivered = ref 0 in
          List.iter
            (fun ev ->
              match ev with
              | R.Send { pid; dst = d; _ } when pid = src && d = dst ->
                incr sends
              | R.Deliver { pid; src = s; _ } when pid = dst && s = src ->
                incr delivered;
                if !delivered > !sends then ok := false
              | _ -> ())
            evs
        done
      done;
      !ok)

(* ---------------------- pinned recorded journal --------------------- *)

(* A handcrafted two-domain counter run, recorded single-threaded under
   the deterministic clock. The journal built from the merged stream
   must replay cleanly AND hash to pinned bytes — the recorder wire
   format, the merge order, the journal rendering and the fingerprint
   are all load-bearing. *)
let scripts_2dom : (Counter_spec.update, Counter_spec.query) Protocol.invocation
                     list array =
  [|
    [
      Protocol.Invoke_update (Counter_spec.Add 1);
      Protocol.Invoke_query Counter_spec.Value;
    ];
    [ Protocol.Invoke_update (Counter_spec.Add 2) ];
  |]

let record_2dom r =
  let h0 = R.handle r 0 and h1 = R.handle r 1 in
  R.invoke_update h0;
  (* p0: Add 1 *)
  let lam01 = R.send h0 ~dst:1 ~count:1 ~bytes:12 in
  R.invoke_update h1;
  (* p1: Add 2 *)
  let lam10 = R.send h1 ~dst:0 ~count:1 ~bytes:12 in
  R.deliver h0 ~src:1 ~count:1 ~frame_lamport:lam10;
  R.invoke_query h0 ~omega:false;
  (* p0 reads 3 *)
  R.deliver h1 ~src:0 ~count:1 ~frame_lamport:lam01;
  R.invoke_query h0 ~omega:true;
  R.invoke_query h1 ~omega:true

let pinned_recorded_journal () =
  let r = R.create ~now:(counter_clock ()) ~domains:2 () in
  record_2dom r;
  let journal =
    T_counter.journal_of_events
      ~header:[ ("engine", Obs.Json.Str "parallel"); ("spec", Obs.Json.Str "counter") ]
      ~scripts:scripts_2dom ~final_read:Counter_spec.Value
      ~query_outputs:[| [ 3 ]; [] |]
      ~omega_outputs:[ (0, 3); (1, 3) ]
      (R.events r)
  in
  Alcotest.(check int) "one journal event per record" 9
    (Obs.Journal.length journal);
  (match
     T_counter.replay_journal ~scripts:scripts_2dom
       ~final_read:Counter_spec.Value journal
   with
   | Ok fp ->
     Alcotest.(check (option string))
       "replay hits the footer" (Some fp)
       (Obs.Journal.fingerprint journal)
   | Error e -> Alcotest.fail ("replay failed: " ^ e));
  Alcotest.(check string) "sha256 of the recorded journal"
    "3c742a2e018f3fd5c1ee3814d843572be7e240ab73d61ddad27e3b825328f8ef"
    (Sha256.hex (Obs.Journal.to_jsonl journal))

(* The batched sibling of the pin above: the same two domains, but each
   direction's updates ride one coalesced two-message frame — the shape
   the engine produces with [batch_every] > 1. The deliver pops both
   messages at once, so the replay bridge exercises [receive_batch] on
   the sequential core, and the journal bytes get their own pin (the
   unbatched pin must never move; this one covers the batched wire). *)
let scripts_2dom_batched :
    (Counter_spec.update, Counter_spec.query) Protocol.invocation list array =
  [|
    [
      Protocol.Invoke_update (Counter_spec.Add 1);
      Protocol.Invoke_update (Counter_spec.Add 2);
    ];
    [
      Protocol.Invoke_update (Counter_spec.Add 10);
      Protocol.Invoke_update (Counter_spec.Add 20);
    ];
  |]

let record_2dom_batched r =
  let h0 = R.handle r 0 and h1 = R.handle r 1 in
  R.invoke_update h0;
  (* p0: Add 1, buffered *)
  R.invoke_update h0;
  (* p0: Add 2, buffered *)
  let lam01 = R.send h0 ~dst:1 ~count:2 ~bytes:24 in
  R.invoke_update h1;
  R.invoke_update h1;
  let lam10 = R.send h1 ~dst:0 ~count:2 ~bytes:24 in
  R.deliver h0 ~src:1 ~count:2 ~frame_lamport:lam10;
  R.deliver h1 ~src:0 ~count:2 ~frame_lamport:lam01;
  R.invoke_query h0 ~omega:true;
  R.invoke_query h1 ~omega:true

let pinned_batched_journal () =
  let r = R.create ~now:(counter_clock ()) ~domains:2 () in
  record_2dom_batched r;
  let journal =
    T_counter.journal_of_events
      ~header:
        [
          ("engine", Obs.Json.Str "parallel");
          ("spec", Obs.Json.Str "counter");
          ("batch", Obs.Json.Num 2.0);
        ]
      ~scripts:scripts_2dom_batched ~final_read:Counter_spec.Value
      ~query_outputs:[| []; [] |]
      ~omega_outputs:[ (0, 33); (1, 33) ]
      (R.events r)
  in
  Alcotest.(check int) "one journal event per record" 10
    (Obs.Journal.length journal);
  (match
     T_counter.replay_journal ~scripts:scripts_2dom_batched
       ~final_read:Counter_spec.Value journal
   with
   | Ok fp ->
     Alcotest.(check (option string))
       "replay hits the footer" (Some fp)
       (Obs.Journal.fingerprint journal)
   | Error e -> Alcotest.fail ("batched replay failed: " ^ e));
  Alcotest.(check string) "sha256 of the batched journal"
    "a8bb6686bdcad05a63d13301896998ce74ab00b3c70a0306959b9b9289f35d01"
    (Sha256.hex (Obs.Journal.to_jsonl journal))

(* A corrupt recording — the stream claims one more update than the
   script holds — must be rejected, not replayed into nonsense. *)
let mismatched_scripts_rejected () =
  let r = R.create ~now:(counter_clock ()) ~domains:2 () in
  record_2dom r;
  R.invoke_update (R.handle r 0);
  match
    T_counter.replay_journal ~scripts:scripts_2dom
      ~final_read:Counter_spec.Value
      (T_counter.journal_of_events ~scripts:scripts_2dom
         ~final_read:Counter_spec.Value
         ~query_outputs:[| [ 3 ]; [] |]
         ~omega_outputs:[ (0, 3); (1, 3) ]
         (R.events r))
  with
  | exception Failure _ -> ()
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt stream replayed successfully"

(* ---------------- monitor vs batch checker agreement ---------------- *)

(* Real engine runs cannot violate UC (that is the point of the
   algorithm), so the differential needs a planted violation: two
   isolated domains whose ω reads answer different final states. The
   online monitor over the merged stream and the batch checker over the
   resolved history must agree — and on the healthy handcrafted run
   they must both stay clean. *)
let planted_violation_agreement () =
  let r = R.create ~now:(counter_clock ()) ~domains:2 () in
  let h0 = R.handle r 0 and h1 = R.handle r 1 in
  R.invoke_update h0;
  (* Add 1, never delivered *)
  R.invoke_query h0 ~omega:true;
  (* ω = 1 *)
  R.invoke_update h1;
  (* Add 2, never delivered *)
  R.invoke_query h1 ~omega:true;
  (* ω = 2: no linearization of {Add 1, Add 2} answers both *)
  let scripts =
    [|
      [ Protocol.Invoke_update (Counter_spec.Add 1) ];
      [ Protocol.Invoke_update (Counter_spec.Add 2) ];
    |]
  in
  let omega_outputs = [ (0, 1); (1, 2) ] in
  let mon =
    T_counter.feed_monitor
      ~criteria:[ Obs.Monitor.Uc; Obs.Monitor.Ec ]
      ~scripts ~final_read:Counter_spec.Value
      ~query_outputs:[| []; [] |]
      ~omega_outputs (R.events r)
  in
  Alcotest.(check bool) "monitor flags the violation" false
    (T_counter.Mon.clean mon);
  let uc_flagged =
    List.exists
      (fun v -> v.Obs.Monitor.criterion = Obs.Monitor.Uc)
      (T_counter.Mon.violations mon)
  in
  Alcotest.(check bool) "UC monitor fired" true uc_flagged;
  let h =
    T_counter.history_of_events ~scripts ~final_read:Counter_spec.Value
      ~query_outputs:[| []; [] |]
      ~omega_outputs (R.events r)
  in
  Alcotest.(check bool) "batch checker agrees: not UC" false (Uc_batch.holds h)

let clean_run_agreement () =
  let r = R.create ~now:(counter_clock ()) ~domains:2 () in
  record_2dom r;
  let mon =
    T_counter.feed_monitor
      ~criteria:[ Obs.Monitor.Uc; Obs.Monitor.Ec; Obs.Monitor.Pc ]
      ~scripts:scripts_2dom ~final_read:Counter_spec.Value
      ~query_outputs:[| [ 3 ]; [] |]
      ~omega_outputs:[ (0, 3); (1, 3) ]
      (R.events r)
  in
  Alcotest.(check bool) "monitors clean" true (T_counter.Mon.clean mon);
  (* Only invocations feed the monitor: 2 updates, 1 query, 2 ω. *)
  Alcotest.(check int) "monitor saw every invocation" 5
    (T_counter.Mon.events_seen mon);
  let h =
    T_counter.history_of_events ~scripts:scripts_2dom
      ~final_read:Counter_spec.Value
      ~query_outputs:[| [ 3 ]; [] |]
      ~omega_outputs:[ (0, 3); (1, 3) ]
      (R.events r)
  in
  Alcotest.(check bool) "batch checker agrees: UC" true (Uc_batch.holds h)

(* ----------------------------- guards ------------------------------ *)

let rejects_bad_create () =
  Alcotest.check_raises "domains"
    (Invalid_argument "Recorder.create: domains must be positive") (fun () ->
      ignore (R.create ~domains:0 ()));
  Alcotest.check_raises "chunk"
    (Invalid_argument "Recorder.create: chunk must be positive") (fun () ->
      ignore (R.create ~chunk:0 ~domains:1 ()))

(* The k-way merge against the sort it replaced. A model of the
   stamping discipline builds every domain's expected stream alongside
   the recording; the old order — decode everything, then sort by
   (lamport, pid, seq) — is kept here as the oracle over their union. *)
let old_sort evs = List.sort (fun a b -> compare (sort_key a) (sort_key b)) evs

let merge_matches_sort seed =
  let rng = Prng.create seed in
  let domains = 1 + Prng.int rng 6 in
  let steps = Prng.int rng 400 in
  let r = R.create ~now:(counter_clock ()) ~chunk:(1 + Prng.int rng 8) ~domains () in
  let lam = Array.make domains 0 and seq = Array.make domains 0 in
  let dseq = Array.make domains 0 and wall = ref (-0.5) in
  let model = Array.make domains [] in
  let inbox = Array.init domains (fun _ -> Queue.create ()) in
  for _ = 1 to steps do
    let pid = Prng.int rng domains in
    let h = R.handle r pid in
    (* Every record ticks the domain clock, takes the next seq and reads
       the injected clock once. *)
    let stamp ?(from = 0) () =
      lam.(pid) <- max from lam.(pid) + 1;
      let s = seq.(pid) in
      seq.(pid) <- s + 1;
      wall := !wall +. 0.5;
      (s, lam.(pid), !wall)
    in
    let ev =
      match Prng.int rng 5 with
      | 0 ->
        R.invoke_update h;
        let seq, lamport, wall = stamp () in
        R.Invoke_update { pid; seq; lamport; wall }
      | 1 ->
        let omega = Prng.bool rng in
        R.invoke_query h ~omega;
        let seq, lamport, wall = stamp () in
        R.Invoke_query { pid; seq; lamport; wall; omega }
      | 2 ->
        let dst = Prng.int rng domains and count = 1 + Prng.int rng 3 in
        let bytes = Prng.int rng 64 in
        let sent = R.send h ~dst ~count ~bytes in
        let seq, lamport, wall = stamp () in
        assert (sent = lamport);
        Queue.push (pid, count, lamport) inbox.(dst);
        R.Send { pid; seq; lamport; wall; dst; count; bytes }
      | 3 when not (Queue.is_empty inbox.(pid)) ->
        let src, count, frame_lamport = Queue.pop inbox.(pid) in
        R.deliver h ~src ~count ~frame_lamport;
        let seq, lamport, wall = stamp ~from:frame_lamport () in
        let d = dseq.(pid) in
        dseq.(pid) <- d + 1;
        R.Deliver { pid; seq; lamport; wall; src; count; dseq = d }
      | _ ->
        let dst = Prng.int rng domains in
        R.stall h ~dst;
        let seq, lamport, wall = stamp () in
        R.Stall { pid; seq; lamport; wall; dst }
    in
    model.(pid) <- ev :: model.(pid)
  done;
  R.events r = old_sort (List.concat_map List.rev (Array.to_list model))

let tests =
  [
    Alcotest.test_case "Lamport/seq/wall stamping discipline" `Quick
      lamport_discipline;
    Alcotest.test_case "chunk rolls lose nothing" `Quick chunk_roll;
    qtest ~count:200 "merge drops nothing, reorders nothing" seed_gen
      merge_is_faithful;
    Alcotest.test_case "recorded journal is byte-pinned and replays" `Quick
      pinned_recorded_journal;
    Alcotest.test_case "batched journal is byte-pinned and replays" `Quick
      pinned_batched_journal;
    Alcotest.test_case "mismatched recording rejected" `Quick
      mismatched_scripts_rejected;
    Alcotest.test_case "planted violation: monitor agrees with batch checker"
      `Quick planted_violation_agreement;
    Alcotest.test_case "clean run: monitor agrees with batch checker" `Quick
      clean_run_agreement;
    Alcotest.test_case "malformed create rejected" `Quick rejects_bad_create;
    qtest ~count:300 "merge equals the (lamport, pid, seq) sort" seed_gen
      merge_matches_sort;
  ]
