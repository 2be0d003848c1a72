type 'u entry = { ts : Timestamp.t; origin : int; payload : 'u }

(* Struct-of-arrays layout. The timestamp-ordered part of the log is a
   byte vector of fixed-size key records; payloads live in an arena
   indexed by the record's slot and are never moved by an insert. A
   mid-log insert therefore shifts plain bytes (one memmove) instead of
   boxed pointers, which in OCaml 5 costs a [caml_modify] per element
   once the array is in the major heap.

   Record layout, native endian ([stride] = 16 bytes):
     [0, 8)   clock   int64
     [8, 10)  pid     uint16
     [10, 12) origin  uint16
     [12, 16) slot    int32, index into [arena] *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let stride = 16

let max_field = 0xFFFF

type ('u, 's) t = {
  mutable keys : Bytes.t;  (* [len] records, strictly increasing timestamps *)
  mutable len : int;
  mutable arena : 'u array;  (* payloads by slot, append-only *)
  mutable slots : int;  (* arena slots in use; [slots - len] are dead *)
  interval : int;
  mutable ckpts : 's array;
      (* [ckpts.(j)] is the fold of the first [interval * (j + 1)]
         entries, for [j < live]. Live checkpoints are always this dense
         prefix: an insert at [pos] keeps exactly the multiples
         [<= pos], and a replay folds through to the tail recording
         every multiple on the way. *)
  mutable live : int;
  mutable watermark : int;
  mutable profile : Obs.Profile.t option;
  query_cache : bool;
  mutable qcache : (int * 's) option;
      (* (k, fold of the first k entries) from the latest replay; like a
         checkpoint but free-floating: re-recorded at the log tail on
         every replay, so a query after a run of appends folds only the
         suffix that arrived since the previous query. Whenever it is
         valid, [k / interval = live]. *)
}

let clock_at keys i = Int64.to_int (get64 keys (i * stride))

let pid_at keys i = get16 keys ((i * stride) + 8)

let origin_at keys i = get16 keys ((i * stride) + 10)

let slot_at keys i = Int32.to_int (get32 keys ((i * stride) + 12))

let set_slot keys i slot = set32 keys ((i * stride) + 12) (Int32.of_int slot)

let write_key keys i ~clock ~pid ~origin ~slot =
  let off = i * stride in
  set64 keys off (Int64.of_int clock);
  set16 keys (off + 8) pid;
  set16 keys (off + 10) origin;
  set_slot keys i slot

let copy_key keys ~src ~dst =
  let s = src * stride and d = dst * stride in
  set64 keys d (get64 keys s);
  set64 keys (d + 8) (get64 keys (s + 8))

(* [Timestamp.compare] of record [i] against (clock, pid). *)
let compare_at keys i clock pid =
  let c = clock_at keys i in
  if c < clock then -1
  else if c > clock then 1
  else Int.compare (pid_at keys i) pid

let in_field v = v >= 0 && v <= max_field

let create ?(checkpoint_interval = 0) ?(query_cache = false) () =
  if checkpoint_interval < 0 then
    invalid_arg "Oplog.create: checkpoint interval must be non-negative";
  {
    keys = Bytes.empty;
    len = 0;
    arena = [||];
    slots = 0;
    interval = checkpoint_interval;
    ckpts = [||];
    live = 0;
    watermark = 0;
    profile = None;
    query_cache;
    qcache = None;
  }

let set_profile t p = t.profile <- p

let checkpoint_interval t = t.interval

let length t = t.len

let entry_at t i =
  let keys = t.keys in
  {
    ts = Timestamp.make ~clock:(clock_at keys i) ~pid:(pid_at keys i);
    origin = origin_at keys i;
    payload = t.arena.(slot_at keys i);
  }

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Oplog.get: index out of bounds";
  entry_at t i

let payload t i =
  if i < 0 || i >= t.len then invalid_arg "Oplog.payload: index out of bounds";
  t.arena.(slot_at t.keys i)

(* First position whose timestamp is greater than (clock, pid).
   Timestamps are strictly totally ordered, so <= 0 vs > 0 is the only
   split that matters. The tail is checked first: a fresh local update
   and most in-order arrivals append. *)
let locate_key t clock pid =
  let keys = t.keys in
  if t.len = 0 || compare_at keys (t.len - 1) clock pid <= 0 then t.len
  else begin
    let lo = ref 0 and hi = ref (t.len - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if compare_at keys mid clock pid <= 0 then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let locate t ts = locate_key t ts.Timestamp.clock ts.Timestamp.pid

(* Room for [extra] more records and arena slots. [Bytes.make], not
   [Bytes.create]: touching the pages here keeps first-touch faults out
   of the appends that follow. *)
let reserve t extra filler =
  let need = t.len + extra in
  if need * stride > Bytes.length t.keys then begin
    let keys = Bytes.make (max 8 (max need (2 * t.len)) * stride) '\000' in
    Bytes.blit t.keys 0 keys 0 (t.len * stride);
    t.keys <- keys
  end;
  let need = t.slots + extra in
  if need > Array.length t.arena then begin
    let arena = Array.make (max 8 (max need (2 * t.slots))) filler in
    Array.blit t.arena 0 arena 0 t.slots;
    t.arena <- arena
  end

let check_fields ~fn ~pid ~origin =
  if not (in_field pid && in_field origin) then
    invalid_arg (fn ^ ": pid or origin outside the key field's range")

let check_insertable t e =
  if e.ts.Timestamp.clock <= t.watermark then
    invalid_arg "Oplog.insert: timestamp at or below the stability watermark";
  check_fields ~fn:"Oplog.insert" ~pid:e.ts.Timestamp.pid ~origin:e.origin

let push_payload t p =
  let slot = t.slots in
  t.arena.(slot) <- p;
  t.slots <- slot + 1;
  slot

(* A landing at [pos] keeps the checkpoints at multiples [<= pos] and
   the query cache if it covers at most [pos] entries; an append
   (pos = previous length) keeps everything. *)
let invalidate t pos =
  if t.interval > 0 then begin
    let keep = pos / t.interval in
    if keep < t.live then begin
      (match t.profile with
      | None -> ()
      | Some p ->
        p.Obs.Profile.checkpoints_dropped <-
          p.Obs.Profile.checkpoints_dropped + t.live - keep);
      t.live <- keep
    end
  end;
  match t.qcache with
  | Some (k, _) when pos < k -> t.qcache <- None
  | _ -> ()

let insert t e =
  check_insertable t e;
  let clock = e.ts.Timestamp.clock and pid = e.ts.Timestamp.pid in
  let pos = locate_key t clock pid in
  (* Timestamps are unique run-wide, so an equal timestamp is the same
     update seen again — snapshot catch-up racing an in-flight frame
     makes delivery at-least-once under churn. Keep insert idempotent. *)
  if pos > 0 && compare_at t.keys (pos - 1) clock pid = 0 then pos - 1
  else begin
    reserve t 1 e.payload;
    let shift = t.len - pos in
    Bytes.blit t.keys (pos * stride) t.keys ((pos + 1) * stride) (shift * stride);
    write_key t.keys pos ~clock ~pid ~origin:e.origin ~slot:(push_payload t e.payload);
    t.len <- t.len + 1;
    (match t.profile with
    | None -> ()
    | Some p ->
      p.Obs.Profile.inserts <- p.Obs.Profile.inserts + 1;
      if shift = 0 then p.Obs.Profile.appends <- p.Obs.Profile.appends + 1
      else p.Obs.Profile.shift_distance <- p.Obs.Profile.shift_distance + shift);
    invalidate t pos;
    pos
  end

(* Batch insertion: one stable sort of the envelope, one capacity
   check, one back-to-front merge pass over the key records —
   O(n + k log k) for k incoming entries against n resident ones,
   where the sequential path pays k binary searches plus up to k
   suffix memmoves. Semantically identical to folding [insert] over
   the batch in order: duplicate timestamps (within the batch or
   against the log) are the same update delivered again and are
   skipped; checkpoints and the query cache are invalidated exactly as
   the sequence of single inserts would have invalidated them (every
   checkpoint above the lowest fresh landing position dies). *)
let rec insert_batch t entries =
  match entries with
  | [] -> 0
  | [ e ] ->
    let len0 = t.len in
    ignore (insert t e : int);
    t.len - len0
  | entries ->
    List.iter (check_insertable t) entries;
    (* Stable sort, then drop in-batch duplicates keeping the first —
       the order the sequential inserts would have kept. *)
    let sorted =
      List.stable_sort (fun a b -> Timestamp.compare a.ts b.ts) entries
    in
    let inc =
      match sorted with
      | [] -> [||]
      | first :: rest ->
        let acc = ref [ first ] and last = ref first in
        List.iter
          (fun e ->
            if Timestamp.compare e.ts !last.ts <> 0 then begin
              acc := e :: !acc;
              last := e
            end)
          rest;
        Array.of_list (List.rev !acc)
    in
    let k = Array.length inc in
    (* Lowest landing position among fresh (non-duplicate) entries, in
       the pre-merge coordinate system: [locate] is monotone in the
       timestamp, so the first fresh candidate gives the minimum. *)
    let rec first_fresh i =
      if i >= k then None
      else
        let { Timestamp.clock; pid } = inc.(i).ts in
        let pos = locate_key t clock pid in
        if pos > 0 && compare_at t.keys (pos - 1) clock pid = 0 then
          first_fresh (i + 1)
        else Some pos
    in
    (match first_fresh 0 with
    | None -> 0 (* every entry already resident: nothing to do *)
    | Some pos_min ->
      invalidate t pos_min;
      merge_batch t inc k)

(* Reserve worst-case room, then merge from the back so every resident
   record moves at most once. Duplicates against the log are skipped
   during the merge, leaving one contiguous gap (the write pointer
   stands still while a duplicate is consumed) closed by a single
   blit. *)
and merge_batch t inc k =
  let len0 = t.len in
  let need = len0 + k in
  reserve t k inc.(0).payload;
  let keys = t.keys in
  let place w e =
    write_key keys w ~clock:e.ts.Timestamp.clock ~pid:e.ts.Timestamp.pid
      ~origin:e.origin ~slot:(push_payload t e.payload)
  in
  let i = ref (len0 - 1) and j = ref (k - 1) and w = ref (need - 1) in
  let dups = ref 0 and appended = ref 0 and moved = ref 0 in
  while !j >= 0 do
    let e = inc.(!j) in
    let c =
      if !i >= 0 then compare_at keys !i e.ts.Timestamp.clock e.ts.Timestamp.pid
      else -1
    in
    if c > 0 then begin
      copy_key keys ~src:!i ~dst:!w;
      incr moved;
      decr i;
      decr w
    end
    else if c = 0 then begin
      incr dups;
      decr j
    end
    else begin
      place !w e;
      if !moved = 0 && !i >= 0 then incr appended;
      decr j;
      decr w
    end
  done;
  let fresh = k - !dups in
  if !dups > 0 then
    (* Close the gap the skipped duplicates left between the resident
       prefix [0 .. i] and the merged region above it. *)
    Bytes.blit keys
      ((!i + 1 + !dups) * stride)
      keys
      ((!i + 1) * stride)
      ((need - !dups - (!i + 1)) * stride);
  t.len <- len0 + fresh;
  (match t.profile with
  | None -> ()
  | Some p ->
    p.Obs.Profile.inserts <- p.Obs.Profile.inserts + fresh;
    p.Obs.Profile.appends <- p.Obs.Profile.appends + !appended;
    p.Obs.Profile.shift_distance <- p.Obs.Profile.shift_distance + !moved);
  fresh

let iter f t =
  for i = 0 to t.len - 1 do
    f (entry_at t i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (entry_at t i)
  done;
  !acc

let to_list t =
  List.init t.len (fun i ->
      let e = entry_at t i in
      (e.ts, e.origin, e.payload))

let certificate t =
  let keys = t.keys and acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := (origin_at keys i, t.arena.(slot_at keys i)) :: !acc
  done;
  !acc

(* Stable sort of [n] records by timestamp; the input is returned as
   is when already sorted (every frame [encode] writes is). *)
let sort_keys keys n =
  let sorted = ref true in
  for i = 1 to n - 1 do
    if compare_at keys (i - 1) (clock_at keys i) (pid_at keys i) > 0 then
      sorted := false
  done;
  if !sorted then keys
  else begin
    let perm = Array.init n Fun.id in
    Array.stable_sort
      (fun a b -> compare_at keys a (clock_at keys b) (pid_at keys b))
      perm;
    let out = Bytes.make (Bytes.length keys) '\000' in
    Array.iteri
      (fun dst src -> Bytes.blit keys (src * stride) out (dst * stride) stride)
      perm;
    out
  end

(* Replace the whole contents with [n] records whose slots index
   [arena], in any order. *)
let install t keys arena n =
  t.keys <- sort_keys keys n;
  t.len <- n;
  t.arena <- arena;
  t.slots <- n;
  t.ckpts <- [||];
  t.live <- 0;
  t.qcache <- None;
  t.watermark <- 0

let load t entries =
  let n = List.length entries in
  let keys = Bytes.make (n * stride) '\000' in
  List.iteri
    (fun i ((ts : Timestamp.t), origin, _) ->
      check_fields ~fn:"Oplog.load" ~pid:ts.pid ~origin;
      write_key keys i ~clock:ts.clock ~pid:ts.pid ~origin ~slot:i)
    entries;
  install t keys (Array.of_list (List.map (fun (_, _, u) -> u) entries)) n

let record t state =
  if t.live = Array.length t.ckpts then begin
    let ckpts = Array.make (max 8 (2 * t.live)) state in
    Array.blit t.ckpts 0 ckpts 0 t.live;
    t.ckpts <- ckpts
  end;
  t.ckpts.(t.live) <- state;
  t.live <- t.live + 1;
  match t.profile with
  | None -> ()
  | Some p ->
    p.Obs.Profile.checkpoints_taken <- p.Obs.Profile.checkpoints_taken + 1

let replay t ~apply ~initial =
  let base, state =
    if t.live = 0 then (0, initial)
    else (t.interval * t.live, t.ckpts.(t.live - 1))
  in
  (* The query cache is re-recorded at the tail of every replay, so it
     is at least as deep as any interval checkpoint unless an insert
     landed below it since the last query. Use whichever is deeper. *)
  let base, state =
    match t.qcache with
    | Some (k, s) when k >= base -> (k, s)
    | _ -> (base, state)
  in
  (match t.profile with
  | None -> ()
  | Some p ->
    p.Obs.Profile.replays <- p.Obs.Profile.replays + 1;
    p.Obs.Profile.replay_steps <- p.Obs.Profile.replay_steps + t.len - base;
    if base > 0 then
      p.Obs.Profile.checkpoint_hits <- p.Obs.Profile.checkpoint_hits + 1
    else if t.interval > 0 then
      p.Obs.Profile.checkpoint_misses <- p.Obs.Profile.checkpoint_misses + 1);
  (* By the dense-prefix invariant the next multiple of the interval
     past [base] is checkpoint number [live], so recording every
     multiple on the way keeps the prefix dense. *)
  let next = ref (if t.interval > 0 then t.interval * (t.live + 1) else max_int) in
  let state = ref state in
  for i = base to t.len - 1 do
    state := apply !state t.arena.(slot_at t.keys i);
    if i + 1 = !next then begin
      record t !state;
      next := !next + t.interval
    end
  done;
  if t.query_cache then t.qcache <- Some (t.len, !state);
  (!state, t.len - base)

let checkpoints_live t = t.live

let watermark t = t.watermark

let compact t ~upto_clock ~apply snapshot =
  if upto_clock <= t.watermark then (snapshot, 0)
  else begin
    (* Entries sort by (clock, pid), so the stable prefix ends where an
       entry with clock > upto_clock would sort. *)
    let stop = locate_key t upto_clock max_int in
    let state = ref snapshot in
    for i = 0 to stop - 1 do
      state := apply !state t.arena.(slot_at t.keys i)
    done;
    Bytes.blit t.keys (stop * stride) t.keys 0 ((t.len - stop) * stride);
    t.len <- t.len - stop;
    (* Folded payloads stay in the arena until the dead slots outnumber
       the live ones; then the live payloads are repacked in timestamp
       order, so the arena's cost stays amortised O(1) per entry. *)
    if t.slots - t.len > t.len then begin
      let arena =
        if t.len = 0 then [||]
        else Array.make (max 8 (2 * t.len)) t.arena.(slot_at t.keys 0)
      in
      for i = 0 to t.len - 1 do
        arena.(i) <- t.arena.(slot_at t.keys i);
        set_slot t.keys i i
      done;
      t.arena <- arena;
      t.slots <- t.len
    end;
    (match t.profile with
    | None -> ()
    | Some p ->
      p.Obs.Profile.compactions <- p.Obs.Profile.compactions + 1;
      p.Obs.Profile.compacted_entries <- p.Obs.Profile.compacted_entries + stop;
      p.Obs.Profile.checkpoints_dropped <-
        p.Obs.Profile.checkpoints_dropped + t.live);
    (* Checkpoint bases shifted by [stop]; simplest safe move is to
       drop the cache (compacting protocols do not use it). The query
       cache goes with them for the same reason: its base index and
       its folded-in prefix both moved out from under it. *)
    t.ckpts <- [||];
    t.live <- 0;
    t.qcache <- None;
    t.watermark <- upto_clock;
    (!state, stop)
  end

let footprint t ~payload_wire_size =
  let keys = t.keys and acc = ref 0 in
  for i = 0 to t.len - 1 do
    acc :=
      !acc
      + Wire.pair_size (clock_at keys i) (pid_at keys i)
      + Wire.varint_size (origin_at keys i)
      + payload_wire_size t.arena.(slot_at keys i)
  done;
  !acc

(* Codec: byte-for-byte the frame the seed Persist wrote. *)

let magic = "UCL"

let version = 1

let checksum s =
  let acc = ref 0 in
  String.iter (fun c -> acc := (!acc + Char.code c) land 0x3FFFFFFF) s;
  !acc

let encode_list ~encode_update entries =
  (* Capacity hint only (16 bytes/entry); the frame is identical either
     way, the writer just skips the doubling-realloc ladder. *)
  let w = Codec.Writer.create ~size:(8 + (16 * List.length entries)) () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) magic;
  Codec.Writer.u8 w version;
  Codec.Writer.varint w (List.length entries);
  List.iter
    (fun (ts, origin, u) ->
      Codec.Writer.varint w ts.Timestamp.clock;
      Codec.Writer.varint w ts.Timestamp.pid;
      Codec.Writer.varint w origin;
      encode_update w u)
    entries;
  let body = Codec.Writer.contents w in
  let tail = Codec.Writer.create () in
  Codec.Writer.varint tail (checksum body);
  body ^ Codec.Writer.contents tail

(* Magic, version and entry count. Every entry takes at least three
   bytes (its clock, pid and origin varints), so a count the rest of
   the frame cannot hold is rejected before anything is sized by it. *)
let decode_header r s =
  String.iter
    (fun c ->
      if Codec.Reader.u8 r <> Char.code c then
        raise (Codec.Decode_error "log snapshot: bad magic"))
    magic;
  if Codec.Reader.u8 r <> version then
    raise (Codec.Decode_error "log snapshot: unsupported version");
  let count = Codec.Reader.varint r in
  if count > (String.length s - Codec.Reader.pos r) / 3 then
    raise (Codec.Decode_error "log snapshot: entry count exceeds the frame");
  count

(* One entry's key varints; pid and origin must fit the key record. *)
let decode_key r =
  let clock = Codec.Reader.varint r in
  let pid = Codec.Reader.varint r in
  let origin = Codec.Reader.varint r in
  if not (in_field pid && in_field origin) then
    raise (Codec.Decode_error "log snapshot: pid or origin out of range");
  (clock, pid, origin)

(* The frame is self-delimiting: the trailing varint after the entries
   is the checksum of everything before it. *)
let check_trailer r s =
  let body_len = Codec.Reader.pos r in
  let declared = Codec.Reader.varint r in
  if not (Codec.Reader.at_end r) then
    raise (Codec.Decode_error "log snapshot: trailing bytes");
  if checksum (String.sub s 0 body_len) <> declared then
    raise (Codec.Decode_error "log snapshot: checksum mismatch")

let decode_list ~decode_update s =
  let r = Codec.Reader.of_string s in
  let count = decode_header r s in
  let entries =
    List.init count (fun _ ->
        let clock, pid, origin = decode_key r in
        let u = decode_update r in
        (Timestamp.make ~clock ~pid, origin, u))
  in
  check_trailer r s;
  entries

(* Same frame as [encode_list], produced straight off the key records:
   no [to_list] materialisation, and with [update_wire_size] available
   the buffer is pre-sized to the exact frame length so the writer
   never reallocates. This is the hot path for [Persist] snapshots. *)
let encode ?update_wire_size ~encode_update t =
  let header_size = String.length magic + 1 + Wire.varint_size t.len in
  let body_size =
    match update_wire_size with
    | None -> header_size + (16 * t.len) (* capacity hint only *)
    | Some size -> header_size + footprint t ~payload_wire_size:size
  in
  (* + 5: room for the trailing checksum varint (<= 2^30 fits in 5). *)
  let w = Codec.Writer.create ~size:(body_size + 5) () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) magic;
  Codec.Writer.u8 w version;
  Codec.Writer.varint w t.len;
  let keys = t.keys in
  for i = 0 to t.len - 1 do
    Codec.Writer.varint w (clock_at keys i);
    Codec.Writer.varint w (pid_at keys i);
    Codec.Writer.varint w (origin_at keys i);
    encode_update w t.arena.(slot_at keys i)
  done;
  let body = Codec.Writer.contents w in
  Codec.Writer.varint w (checksum body);
  Codec.Writer.contents w

(* Decode straight into fresh key records and arena, validated in full
   (checksum included) before the log is touched. *)
let decode ~decode_update t s =
  let r = Codec.Reader.of_string s in
  let n = decode_header r s in
  let keys = Bytes.make (n * stride) '\000' in
  let arena = ref [||] in
  for i = 0 to n - 1 do
    let clock, pid, origin = decode_key r in
    let u = decode_update r in
    if i = 0 then arena := Array.make n u else !arena.(i) <- u;
    write_key keys i ~clock ~pid ~origin ~slot:i
  done;
  check_trailer r s;
  install t keys !arena n
