(* QCheck properties for the shared oplog substrate (lib/core/oplog.ml):
   insertion of any permutation equals the timestamp sort, checkpointed
   replay at every interval equals the full replay, compaction folds
   exactly the stable prefix, and the persistence codec round-trips at
   its declared wire size. *)

open Helpers

(* A random batch of entries with pairwise-distinct timestamps (clock
   collisions are disambiguated by pid, exactly as the protocol's
   (Lamport clock, pid) pairs are), in a shuffled insertion order. *)
let entry_batch rng =
  let n = Prng.int rng 80 in
  let raw = List.init n (fun _ -> (1 + Prng.int rng 50, Prng.int rng 4)) in
  let uniq = List.sort_uniq compare raw in
  let entries =
    List.map
      (fun (clock, pid) ->
        (Timestamp.make ~clock ~pid, pid, Set_spec.random_update rng))
      uniq
  in
  let arr = Array.of_list entries in
  for i = Array.length arr - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let by_timestamp entries =
  List.sort (fun (a, _, _) (b, _, _) -> Timestamp.compare a b) entries

let insert_all log entries =
  List.iter
    (fun (ts, origin, payload) ->
      ignore (Oplog.insert log { Oplog.ts; origin; payload }))
    entries

let fold_states entries =
  List.fold_left (fun s (_, _, u) -> Set_spec.apply s u) Set_spec.initial entries

(* Reimplemented from the frame spec, to pin the format rather than the
   implementation: additive byte sum modulo 2^30. *)
let frame_checksum s =
  let acc = ref 0 in
  String.iter (fun c -> acc := (!acc + Char.code c) land 0x3FFFFFFF) s;
  !acc

(* A reference model of the whole log: a sorted association list, the
   checkpoints as a plain set of covered prefix lengths, and the query
   cache as an optional prefix length — the list-based semantics the
   array layout must reproduce exactly. *)
type model = {
  mutable entries : (Timestamp.t * int * Set_spec.update) list;
  mutable ckpts : int list;
  mutable qk : int option;
  mutable wm : int;
}

let model_insert m ((ts, _, _) as e) =
  if List.exists (fun (t, _, _) -> Timestamp.equal t ts) m.entries then false
  else begin
    let before, after =
      List.partition (fun (t, _, _) -> Timestamp.compare t ts < 0) m.entries
    in
    let pos = List.length before in
    m.entries <- before @ (e :: after);
    m.ckpts <- List.filter (fun k -> k <= pos) m.ckpts;
    (match m.qk with Some k when pos < k -> m.qk <- None | _ -> ());
    true
  end

let model_replay m ~interval ~cache =
  let base = List.fold_left max 0 m.ckpts in
  let base = match m.qk with Some k when k >= base -> k | _ -> base in
  let len = List.length m.entries in
  if interval > 0 then
    for k = base + 1 to len do
      if k mod interval = 0 then m.ckpts <- k :: m.ckpts
    done;
  if cache then m.qk <- Some len;
  (fold_states m.entries, len - base)

let model_reset m entries =
  m.entries <- by_timestamp entries;
  m.ckpts <- [];
  m.qk <- None;
  m.wm <- 0

let model_tests =
  [
    qtest ~count:300 "random operation sequences agree with a sorted-list model"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let interval = [| 0; 1; 3; 32 |].(Prng.int rng 4) in
        let cache = Prng.bool rng in
        let log = Oplog.create ~checkpoint_interval:interval ~query_cache:cache () in
        let m = { entries = []; ckpts = []; qk = None; wm = 0 } in
        let fresh_entry () =
          let clock = m.wm + 1 + Prng.int rng 40 in
          let pid = Prng.int rng 4 in
          (Timestamp.make ~clock ~pid, pid, Set_spec.random_update rng)
        in
        (* Half the time re-deliver a resident entry, as churn catch-up
           does; its payload is the resident one. *)
        let any_entry () =
          match m.entries with
          | _ :: _ when Prng.int rng 3 = 0 ->
            List.nth m.entries (Prng.int rng (List.length m.entries))
          | _ -> fresh_entry ()
        in
        let to_entry (ts, origin, payload) = { Oplog.ts; origin; payload } in
        let agree () =
          Oplog.to_list log = m.entries
          && Oplog.length log = List.length m.entries
          && Oplog.checkpoints_live log = List.length m.ckpts
          && Oplog.watermark log = m.wm
          && Oplog.certificate log
             = List.map (fun (_, o, u) -> (o, u)) m.entries
        in
        let step () =
          match Prng.int rng 10 with
          | 0 | 1 | 2 ->
            let e = any_entry () in
            let pos = Oplog.insert log (to_entry e) in
            let (ts, _, _) = e in
            ignore (model_insert m e : bool);
            Timestamp.equal (Oplog.get log pos).Oplog.ts ts
          | 3 | 4 ->
            let batch = List.init (Prng.int rng 8) (fun _ -> any_entry ()) in
            let fresh = Oplog.insert_batch log (List.map to_entry batch) in
            let expected =
              List.length (List.filter (fun e -> model_insert m e) batch)
            in
            fresh = expected
          | 5 | 6 ->
            let state, steps =
              Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
            in
            let mstate, msteps = model_replay m ~interval ~cache in
            Set_spec.equal_state state mstate && steps = msteps
          | 7 ->
            let bound = m.wm + Prng.int rng 20 in
            let state, folded =
              Oplog.compact log ~upto_clock:bound ~apply:Set_spec.apply
                Set_spec.initial
            in
            if bound <= m.wm then folded = 0
            else begin
              let prefix, suffix =
                List.partition
                  (fun (ts, _, _) -> ts.Timestamp.clock <= bound)
                  m.entries
              in
              m.entries <- suffix;
              m.ckpts <- [];
              m.qk <- None;
              m.wm <- bound;
              folded = List.length prefix
              && Set_spec.equal_state state (fold_states prefix)
            end
          | 8 ->
            let entries = entry_batch rng in
            Oplog.load log entries;
            model_reset m entries;
            true
          | _ ->
            let frame =
              Oplog.encode ~update_wire_size:Set_spec.update_wire_size
                ~encode_update:Update_codec.For_set.encode log
            in
            Oplog.decode ~decode_update:Update_codec.For_set.decode log frame;
            model_reset m m.entries;
            frame
            = Oplog.encode_list ~encode_update:Update_codec.For_set.encode
                (Oplog.to_list log)
        in
        let rec run n = n = 0 || (step () && agree () && run (n - 1)) in
        run (20 + Prng.int rng 60));
  ]

let tests =
  model_tests
  @ [
    qtest ~count:300 "inserting any permutation equals the timestamp sort"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        let log = Oplog.create () in
        insert_all log entries;
        Oplog.length log = List.length entries
        && Oplog.to_list log = by_timestamp entries);
    qtest ~count:300 "insert returns the landing position" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        let log = Oplog.create () in
        List.for_all
          (fun (ts, origin, payload) ->
            let pos = Oplog.insert log { Oplog.ts; origin; payload } in
            Timestamp.equal (Oplog.get log pos).Oplog.ts ts
            && pos = Oplog.locate log ts - 1)
          entries);
    qtest ~count:200
      "checkpointed replay equals full replay at every interval" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        List.for_all
          (fun interval ->
            let log = Oplog.create ~checkpoint_interval:interval () in
            let inserted = ref [] in
            List.for_all
              (fun ((_, _, _) as e) ->
                let ts, origin, payload = e in
                ignore (Oplog.insert log { Oplog.ts; origin; payload });
                inserted := e :: !inserted;
                (* Replay mid-stream at random points, so checkpoints
                   recorded by one replay get invalidated by the next
                   late insert. *)
                Prng.int rng 3 > 0
                ||
                let state, steps =
                  Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
                in
                steps >= 0
                && Set_spec.equal_state state
                     (fold_states (by_timestamp !inserted)))
              entries
            &&
            let state, _ =
              Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
            in
            Set_spec.equal_state state (fold_states (by_timestamp entries)))
          [ 1; 2; 3; 4; 5; 7; 8; 16; 32; 0 ]);
    qtest ~count:200 "warm checkpoints bound replay work to one interval"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let interval = 1 + Prng.int rng 16 in
        let n = Prng.int rng 120 in
        let log = Oplog.create ~checkpoint_interval:interval () in
        (* In-order arrivals: nothing invalidates, so after one replay a
           second one starts at the deepest recorded checkpoint. *)
        for i = 1 to n do
          ignore
            (Oplog.insert log
               { Oplog.ts = Timestamp.make ~clock:i ~pid:0;
                 origin = 0;
                 payload = Set_spec.random_update rng;
               })
        done;
        let _, steps1 =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        let _, steps2 =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        steps1 = n && steps2 = n mod interval
        && Oplog.checkpoints_live log = n / interval);
    qtest ~count:300 "compaction folds exactly the stable prefix" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        let bound = Prng.int rng 60 in
        let log = Oplog.create () in
        insert_all log entries;
        let sorted = by_timestamp entries in
        let prefix, suffix =
          List.partition (fun (ts, _, _) -> ts.Timestamp.clock <= bound) sorted
        in
        let state, folded =
          Oplog.compact log ~upto_clock:bound ~apply:Set_spec.apply
            Set_spec.initial
        in
        folded = List.length prefix
        && Set_spec.equal_state state (fold_states prefix)
        && Oplog.to_list log = suffix
        && Oplog.watermark log = max bound 0
        && (bound <= 0
           ||
           match
             Oplog.insert log
               { Oplog.ts = Timestamp.make ~clock:bound ~pid:9;
                 origin = 9;
                 payload = Set_spec.random_update rng;
               }
           with
           | _ -> false
           | exception Invalid_argument _ -> true));
    qtest ~count:300 "codec round-trips at the declared wire size" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = by_timestamp (entry_batch rng) in
        let s =
          Oplog.encode_list ~encode_update:Update_codec.For_set.encode entries
        in
        let body_len =
          3 + 1
          + Wire.varint_size (List.length entries)
          + List.fold_left
              (fun acc (ts, origin, u) ->
                acc + Timestamp.wire_size ts + Wire.varint_size origin
                + Set_spec.update_wire_size u)
              0 entries
        in
        let declared_trailer =
          Wire.varint_size (frame_checksum (String.sub s 0 body_len))
        in
        String.length s = body_len + declared_trailer
        && Oplog.decode_list ~decode_update:Update_codec.For_set.decode s
           = entries);
    qtest ~count:200 "codec rejects any single corrupted byte" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = by_timestamp (entry_batch rng) in
        let s =
          Bytes.of_string
            (Oplog.encode_list ~encode_update:Update_codec.For_set.encode entries)
        in
        let i = Prng.int rng (Bytes.length s) in
        Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 1));
        match
          Oplog.decode_list ~decode_update:Update_codec.For_set.decode
            (Bytes.to_string s)
        with
        | decoded ->
          (* A flip inside an update payload can decode to a different
             valid frame only if the checksum also matched — never. *)
          decoded <> entries && false
        | exception Codec.Decode_error _ -> true);
    qtest ~count:300 "load accepts any order and resets the cache" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        let log = Oplog.create ~checkpoint_interval:4 () in
        insert_all log entries;
        let _ =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        Oplog.load log entries;
        Oplog.checkpoints_live log = 0
        && Oplog.watermark log = 0
        && Oplog.to_list log = by_timestamp entries
        &&
        let state, steps =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        steps = List.length entries
        && Set_spec.equal_state state (fold_states (by_timestamp entries)));
    Alcotest.test_case "negative checkpoint interval is rejected" `Quick
      (fun () ->
        Alcotest.check_raises "create"
          (Invalid_argument
             "Oplog.create: checkpoint interval must be non-negative")
          (fun () -> ignore (Oplog.create ~checkpoint_interval:(-1) () : (int, int) Oplog.t)));
    (* The persistence hot path: [encode] now streams the backing array
       into a pre-sized buffer instead of materialising [to_list]. The
       frame must stay byte-for-byte the [encode_list] frame — with the
       exact-size hint, without it, and after mid-log insertions. *)
    qtest ~count:300 "encode streams the array byte-identically to the list path"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        let log = Oplog.create () in
        insert_all log entries;
        let reference =
          Oplog.encode_list ~encode_update:Update_codec.For_set.encode
            (Oplog.to_list log)
        in
        Oplog.encode ~encode_update:Update_codec.For_set.encode log = reference
        && Oplog.encode ~update_wire_size:Set_spec.update_wire_size
             ~encode_update:Update_codec.For_set.encode log
           = reference);
    Alcotest.test_case "encode of an empty log matches the list path" `Quick
      (fun () ->
        let log : (Set_spec.update, Set_spec.state) Oplog.t = Oplog.create () in
        Alcotest.(check string)
          "empty frame"
          (Oplog.encode_list ~encode_update:Update_codec.For_set.encode [])
          (Oplog.encode ~update_wire_size:Set_spec.update_wire_size
             ~encode_update:Update_codec.For_set.encode log));
    (* The one-pass batch merge: any chunking of any arrival order —
       duplicate timestamps included, within a chunk and against the
       resident log — must leave the log, the surviving checkpoints,
       the watermark, and the frame bytes exactly as one-at-a-time
       insertion does, with replays interleaved so there are live
       checkpoints for the batch path to invalidate (or wrongly keep). *)
    qtest ~count:300 "insert_batch of any chunking equals sequential inserts"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let n = Prng.int rng 60 in
        let entries =
          List.init n (fun _ ->
              ( Timestamp.make ~clock:(1 + Prng.int rng 12)
                  ~pid:(Prng.int rng 3),
                Prng.int rng 3,
                Set_spec.random_update rng ))
        in
        let chunks =
          let rec go acc cur = function
            | [] -> List.rev (List.rev cur :: acc)
            | e :: tl ->
              if Prng.int rng 4 = 0 then go (List.rev cur :: acc) [ e ] tl
              else go acc (e :: cur) tl
          in
          go [] [] entries
        in
        let interval = Prng.int rng 6 in
        let seq = Oplog.create ~checkpoint_interval:interval () in
        let bat = Oplog.create ~checkpoint_interval:interval () in
        List.for_all
          (fun chunk ->
            let len0 = Oplog.length seq in
            insert_all seq chunk;
            let fresh =
              Oplog.insert_batch bat
                (List.map
                   (fun (ts, origin, payload) -> { Oplog.ts; origin; payload })
                   chunk)
            in
            (if Prng.int rng 2 = 0 then begin
               ignore
                 (Oplog.replay seq ~apply:Set_spec.apply
                    ~initial:Set_spec.initial);
               ignore
                 (Oplog.replay bat ~apply:Set_spec.apply
                    ~initial:Set_spec.initial)
             end);
            fresh = Oplog.length seq - len0
            && Oplog.to_list bat = Oplog.to_list seq
            && Oplog.watermark bat = Oplog.watermark seq
            && Oplog.checkpoints_live bat = Oplog.checkpoints_live seq)
          chunks
        && Oplog.encode_list ~encode_update:Update_codec.For_set.encode
             (Oplog.to_list bat)
           = Oplog.encode_list ~encode_update:Update_codec.For_set.encode
               (Oplog.to_list seq)
        &&
        let sb, _ =
          Oplog.replay bat ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        let ss, _ =
          Oplog.replay seq ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        Set_spec.equal_state sb ss);
    qtest ~count:300 "insert_batch is idempotent on re-delivered batches"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        let batch =
          List.map
            (fun (ts, origin, payload) -> { Oplog.ts; origin; payload })
            entries
        in
        let log = Oplog.create () in
        let first = Oplog.insert_batch log batch in
        let again = Oplog.insert_batch log batch in
        first = List.length entries
        && again = 0
        && Oplog.to_list log = by_timestamp entries);
    Alcotest.test_case "insert_batch below the watermark is all-or-nothing"
      `Quick
      (fun () ->
        let log : (Set_spec.update, Set_spec.state) Oplog.t = Oplog.create () in
        let entry clock =
          { Oplog.ts = Timestamp.make ~clock ~pid:0;
            origin = 0;
            payload = Set_spec.Insert clock;
          }
        in
        ignore (Oplog.insert log (entry 5) : int);
        let _ = Oplog.compact log ~upto_clock:3 ~apply:Set_spec.apply Set_spec.initial in
        let before = Oplog.to_list log in
        Alcotest.check_raises "stale entry rejected"
          (Invalid_argument
             "Oplog.insert: timestamp at or below the stability watermark")
          (fun () -> ignore (Oplog.insert_batch log [ entry 9; entry 2 ] : int));
        Alcotest.(check bool) "log unchanged" true (Oplog.to_list log = before);
        Alcotest.(check int) "valid batch still lands" 1
          (Oplog.insert_batch log [ entry 9 ]));
    qtest ~count:200 "query cache folds only the unstable suffix" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let n = 2 + Prng.int rng 80 in
        let log = Oplog.create ~query_cache:true () in
        for i = 1 to n do
          ignore
            (Oplog.insert log
               { Oplog.ts = Timestamp.make ~clock:(i * 2) ~pid:0;
                 origin = 0;
                 payload = Set_spec.random_update rng;
               })
        done;
        let expect () = fold_states (Oplog.to_list log) in
        let s1, steps1 =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        let s2, steps2 =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        (* Tail append leaves the cache valid; a late insert before it
           must invalidate. *)
        ignore
          (Oplog.insert log
             { Oplog.ts = Timestamp.make ~clock:((n + 1) * 2) ~pid:0;
               origin = 0;
               payload = Set_spec.random_update rng;
             });
        let s3, steps3 =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        let e3 = expect () in
        ignore
          (Oplog.insert log
             { Oplog.ts = Timestamp.make ~clock:3 ~pid:1;
               origin = 1;
               payload = Set_spec.random_update rng;
             });
        let s4, steps4 =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        steps1 = n && steps2 = 0 && steps3 = 1
        && steps4 = n + 2
        && Set_spec.equal_state s1 s2
        && Set_spec.equal_state s3 e3
        && Set_spec.equal_state s4 (expect ()));
    Alcotest.test_case "insert allocates nothing once warm" `Quick (fun () ->
        let entry clock pid =
          { Oplog.ts = Timestamp.make ~clock ~pid; origin = pid;
            payload = Set_spec.Insert clock }
        in
        (* Appends: 1,100 entries grow the capacity to 2,048, so the
           500 measured appends below never reallocate. *)
        let log = Oplog.create ~checkpoint_interval:32 ~query_cache:true () in
        for c = 1 to 1100 do
          ignore (Oplog.insert log (entry c 0) : int)
        done;
        ignore (Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial);
        let appends = Array.init 500 (fun i -> entry (1101 + i) 0) in
        let before = Stdlib.Gc.minor_words () in
        for i = 0 to Array.length appends - 1 do
          ignore (Sys.opaque_identity (Oplog.insert log appends.(i)))
        done;
        let words = Stdlib.Gc.minor_words () -. before in
        Alcotest.(check (float 0.0)) "append minor words" 0.0 words;
        (* Mid-log inserts with checkpoints at every entry: each lands
           behind more than 1,000 live checkpoints and invalidates the
           ones above it, with a telemetry profile attached. *)
        let log = Oplog.create ~checkpoint_interval:1 ~query_cache:true () in
        Oplog.set_profile log (Some (Obs.Profile.create ()));
        for c = 1 to 1900 do
          ignore (Oplog.insert log (entry (2 * c) 0) : int)
        done;
        ignore (Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial);
        let late = Array.init 200 (fun i -> entry (3800 - (2 * i) - 1) 1) in
        Array.iter
          (fun e ->
            Alcotest.(check bool) "at least 1,000 live checkpoints" true
              (Oplog.checkpoints_live log >= 1000);
            let before = Stdlib.Gc.minor_words () in
            let pos = Sys.opaque_identity (Oplog.insert log e) in
            let words = Stdlib.Gc.minor_words () -. before in
            Alcotest.(check (float 0.0)) "mid-log minor words" 0.0 words;
            Alcotest.(check bool) "landed mid-log" true (pos < Oplog.length log - 1))
          late);
  ]
