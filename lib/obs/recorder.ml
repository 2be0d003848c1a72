(* Per-domain flight recording.

   The hot path is [put]: one bounds check, five stores into the
   current chunk, no allocation until a chunk fills (and then one
   [Bytes.create], amortised over [chunk] records). Handles are
   strictly domain-private; nothing here is atomic because nothing is
   shared — the engine obtains every handle before spawning and reads
   the buffers only after the joins.

   Record layout (29 bytes, little-endian):
     0     kind      (1 byte)
     1..4  a         (int32: dst for send/stall, src for deliver)
     5..8  b         (int32: message count)
     9..12 c         (int32: frame bytes for send, delivery seq for deliver)
     13..20 lamport  (int64)
     21..28 wall     (float bits)
   The per-domain sequence number is the record's position in its
   domain's stream and is not stored. *)

let record_size = 29

let k_update = 0

let k_query = 1

let k_query_omega = 2

let k_send = 3

let k_deliver = 4

let k_stall = 5

type clock = { mutable fn : (unit -> float) option }

type handle = {
  pid : int;
  clock : clock;
  chunk_records : int;
  mutable filled : Bytes.t list;  (* full chunks, newest first *)
  mutable cur : Bytes.t;
  mutable used : int;  (* records in [cur] *)
  mutable total : int;  (* records appended = next per-domain seq *)
  mutable lam : int;
  mutable dseq : int;  (* next delivery sequence number *)
}

type t = { clock : clock; handles : handle array }

let create ?now ?(chunk = 4096) ~domains () =
  if domains <= 0 then invalid_arg "Recorder.create: domains must be positive";
  if chunk < 1 then invalid_arg "Recorder.create: chunk must be positive";
  let clock = { fn = now } in
  {
    clock;
    handles =
      Array.init domains (fun pid ->
          {
            pid;
            clock;
            chunk_records = chunk;
            filled = [];
            cur = Bytes.create (chunk * record_size);
            used = 0;
            total = 0;
            lam = 0;
            dseq = 0;
          });
  }

let install_clock t f = if t.clock.fn = None then t.clock.fn <- Some f

let handle t pid =
  if pid < 0 || pid >= Array.length t.handles then
    invalid_arg "Recorder.handle: pid out of range";
  t.handles.(pid)

let put h kind a b c lamport =
  if h.used = h.chunk_records then begin
    h.filled <- h.cur :: h.filled;
    h.cur <- Bytes.create (h.chunk_records * record_size);
    h.used <- 0
  end;
  let off = h.used * record_size in
  let wall = match h.clock.fn with None -> 0.0 | Some f -> f () in
  Bytes.set_uint8 h.cur off kind;
  Bytes.set_int32_le h.cur (off + 1) (Int32.of_int a);
  Bytes.set_int32_le h.cur (off + 5) (Int32.of_int b);
  Bytes.set_int32_le h.cur (off + 9) (Int32.of_int c);
  Bytes.set_int64_le h.cur (off + 13) (Int64.of_int lamport);
  Bytes.set_int64_le h.cur (off + 21) (Int64.bits_of_float wall);
  h.used <- h.used + 1;
  h.total <- h.total + 1

let tick h =
  h.lam <- h.lam + 1;
  h.lam

let invoke_update h = put h k_update 0 0 0 (tick h)

let invoke_query h ~omega =
  put h (if omega then k_query_omega else k_query) 0 0 0 (tick h)

let send h ~dst ~count ~bytes =
  let lam = tick h in
  put h k_send dst count bytes lam;
  lam

let deliver h ~src ~count ~frame_lamport =
  h.lam <- (if frame_lamport > h.lam then frame_lamport else h.lam) + 1;
  put h k_deliver src count h.dseq h.lam;
  h.dseq <- h.dseq + 1

let stall h ~dst = put h k_stall dst 0 0 (tick h)

let recorded t =
  Array.fold_left (fun acc h -> acc + h.total) 0 t.handles

type event =
  | Invoke_update of { pid : int; seq : int; lamport : int; wall : float }
  | Invoke_query of {
      pid : int;
      seq : int;
      lamport : int;
      wall : float;
      omega : bool;
    }
  | Send of {
      pid : int;
      seq : int;
      lamport : int;
      wall : float;
      dst : int;
      count : int;
      bytes : int;
    }
  | Deliver of {
      pid : int;
      seq : int;
      lamport : int;
      wall : float;
      src : int;
      count : int;
      dseq : int;
    }
  | Stall of { pid : int; seq : int; lamport : int; wall : float; dst : int }

let event_pid = function
  | Invoke_update { pid; _ }
  | Invoke_query { pid; _ }
  | Send { pid; _ }
  | Deliver { pid; _ }
  | Stall { pid; _ } -> pid

let event_lamport = function
  | Invoke_update { lamport; _ }
  | Invoke_query { lamport; _ }
  | Send { lamport; _ }
  | Deliver { lamport; _ }
  | Stall { lamport; _ } -> lamport

let event_wall = function
  | Invoke_update { wall; _ }
  | Invoke_query { wall; _ }
  | Send { wall; _ }
  | Deliver { wall; _ }
  | Stall { wall; _ } -> wall

let decode_record pid seq buf off =
  let a = Int32.to_int (Bytes.get_int32_le buf (off + 1)) in
  let b = Int32.to_int (Bytes.get_int32_le buf (off + 5)) in
  let c = Int32.to_int (Bytes.get_int32_le buf (off + 9)) in
  let lamport = Int64.to_int (Bytes.get_int64_le buf (off + 13)) in
  let wall = Int64.float_of_bits (Bytes.get_int64_le buf (off + 21)) in
  match Bytes.get_uint8 buf off with
  | k when k = k_update -> Invoke_update { pid; seq; lamport; wall }
  | k when k = k_query -> Invoke_query { pid; seq; lamport; wall; omega = false }
  | k when k = k_query_omega ->
    Invoke_query { pid; seq; lamport; wall; omega = true }
  | k when k = k_send ->
    Send { pid; seq; lamport; wall; dst = a; count = b; bytes = c }
  | k when k = k_deliver ->
    Deliver { pid; seq; lamport; wall; src = a; count = b; dseq = c }
  | k when k = k_stall -> Stall { pid; seq; lamport; wall; dst = a }
  | k -> invalid_arg (Printf.sprintf "Recorder: corrupt record kind %d" k)

(* One domain's stream as an array in stream order (index = seq).
   Within a domain the clock never goes back — every record ticks it —
   so a decreasing stamp can only come from a corrupt recording, and
   the merge below would silently misorder it. *)
let decode_handle h =
  let chunks =
    Array.of_list
      (List.rev ((h.cur, h.used) :: List.map (fun c -> (c, h.chunk_records)) h.filled))
  in
  let chunk = ref 0 and off = ref 0 and last = ref min_int in
  Array.init h.total (fun seq ->
      while !off = snd chunks.(!chunk) do
        incr chunk;
        off := 0
      done;
      let ev = decode_record h.pid seq (fst chunks.(!chunk)) (!off * record_size) in
      incr off;
      let lamport = event_lamport ev in
      if lamport < !last then
        invalid_arg
          (Printf.sprintf "Recorder.events: domain %d's clock goes back at seq %d" h.pid seq);
      last := lamport;
      ev)

let events t =
  (* (lamport, pid, seq): a linear extension of happens-before — the
     clock discipline puts every send strictly before its deliver, and
     within a domain the clock (and seq) strictly increase, so program
     order survives the merge. pid breaks cross-domain ties
     deterministically. Each stream is already in that order, so a
     k-way merge yields it: taken from the back, always the greatest
     remaining tail (ties on the clock to the larger pid), consed onto
     the front. *)
  let streams = Array.map decode_handle t.handles in
  let left = Array.map Array.length streams in
  let remaining = ref (Array.fold_left ( + ) 0 left) and acc = ref [] in
  while !remaining > 0 do
    let best = ref (-1) and best_lamport = ref min_int in
    for pid = 0 to Array.length streams - 1 do
      let k = left.(pid) in
      if k > 0 then begin
        let lamport = event_lamport streams.(pid).(k - 1) in
        if lamport >= !best_lamport then begin
          best := pid;
          best_lamport := lamport
        end
      end
    done;
    let k = left.(!best) - 1 in
    acc := streams.(!best).(k) :: !acc;
    left.(!best) <- k;
    decr remaining
  done;
  !acc
