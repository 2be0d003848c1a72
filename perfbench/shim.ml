(* The timing shim: Algorithm 1 ([Generic.Make]) wrapped so that every
   call an engine makes into the protocol, and every send the protocol
   makes back into the engine, is recorded as a span. Nothing inside
   the library is instrumented; the shim sits between the engine and
   the protocol and is what [Parallel_engine.Make]/[Runner.Make] are
   instantiated with in the traced run.

   Spans go into a per-replica buffer (struct of int arrays, doubling
   on overflow). A replica lives on one domain and only that domain
   touches its buffer; the coordinating domain reads the buffers after
   the joins. Stamps are [Monotonic_clock] nanoseconds, the clock the
   engine's own latency stamps and the runtime's GC events use. *)

let k_update = 0
let k_query = 1
let k_receive = 2
let k_send = 3

let now () = Int64.to_int (Monotonic_clock.now ())

type buf = {
  pid : int;
  created : int;  (** stamp when the replica was created *)
  mutable len : int;
  mutable kind : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable count : int array;  (** messages carried, for sends and receives *)
  mutable cur : int;  (** the open span, or -1 *)
}

let create_buf pid =
  let cap = 1 lsl 16 in
  {
    pid;
    created = now ();
    len = 0;
    kind = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    count = Array.make cap 0;
    cur = -1;
  }

let grow b =
  let cap = 2 * Array.length b.kind in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  b.kind <- ext b.kind;
  b.start <- ext b.start;
  b.stop <- ext b.stop;
  b.parent <- ext b.parent;
  b.count <- ext b.count

let enter b kind count =
  if b.len = Array.length b.kind then grow b;
  let i = b.len in
  b.len <- i + 1;
  b.kind.(i) <- kind;
  b.parent.(i) <- b.cur;
  b.count.(i) <- count;
  b.cur <- i;
  b.start.(i) <- now ();
  i

let leave b i =
  b.stop.(i) <- now ();
  b.cur <- b.parent.(i)

(* The intervals of the spans no other span encloses, in open order. *)
let top_level b =
  List.filter_map
    (fun i -> if b.parent.(i) < 0 then Some (b.start.(i), b.stop.(i)) else None)
    (List.init b.len Fun.id)

let self_times b =
  Arith.self_times ~start:b.start ~stop:b.stop ~parent:b.parent ~len:b.len

module Make (A : Uqadt.S) = struct
  module G = Generic.Make (A)
  include A

  type message = G.message

  type t = { g : G.t; buf : buf; profile : Obs.Profile.t }

  let protocol_name = G.protocol_name

  (* Every replica created since the last [reset]. Replicas are created
     inside their domains, so registration goes through an atomic list;
     it is read only after the joins. *)
  let created : t list Atomic.t = Atomic.make []

  let reset () = Atomic.set created []

  let replicas () =
    List.sort (fun a b -> compare a.buf.pid b.buf.pid) (Atomic.get created)

  let rec register t =
    let l = Atomic.get created in
    if not (Atomic.compare_and_set created l (t :: l)) then register t

  let create (ctx : message Protocol.ctx) =
    Gc_events.mark ctx.Protocol.pid;
    let b = create_buf ctx.Protocol.pid in
    let timed count f =
      let i = enter b k_send count in
      f ();
      leave b i
    in
    let handle = Obs.make_replica ctx.Protocol.pid in
    let ctx' =
      {
        ctx with
        Protocol.send = (fun ~dst m -> timed 1 (fun () -> ctx.Protocol.send ~dst m));
        broadcast = (fun m -> timed 1 (fun () -> ctx.Protocol.broadcast m));
        broadcast_batch =
          (fun ms ->
            timed (List.length ms) (fun () -> ctx.Protocol.broadcast_batch ms));
        (* The op-log profile counters ride on the replica handle. *)
        obs = Some handle;
      }
    in
    let t = { g = G.create ctx'; buf = b; profile = handle.Obs.profile } in
    register t;
    t

  let update t u ~on_done =
    let i = enter t.buf k_update 1 in
    let completed = ref false in
    G.update t.g u ~on_done:(fun () -> completed := true);
    leave t.buf i;
    if !completed then on_done ()

  let query t q ~on_result =
    let i = enter t.buf k_query 1 in
    let out = ref None in
    G.query t.g q ~on_result:(fun o -> out := Some o);
    leave t.buf i;
    Option.iter on_result !out

  let receive t ~src m =
    let i = enter t.buf k_receive 1 in
    G.receive t.g ~src m;
    leave t.buf i

  let receive_batch t ~src ms =
    let i = enter t.buf k_receive (List.length ms) in
    G.receive_batch t.g ~src ms;
    leave t.buf i

  let message_wire_size = G.message_wire_size
  let describe_message = G.describe_message
  let log_length t = G.log_length t.g
  let metadata_bytes t = G.metadata_bytes t.g
  let certificate t = G.certificate t.g
  let snapshot t = G.snapshot t.g
  let absorb t s = G.absorb t.g s
  let local_log t = G.local_log t.g
  let checkpoints_live t = G.checkpoints_live t.g
end

(* Client-side stamps only: the wall time of each update and query call
   as its caller sees it, which [Parallel_engine] records natively and
   [Runner] does not. Used by the untraced sequential workload; one
   stamp pair per invocation, no spans. *)
module Stamped (A : Uqadt.S) = struct
  module G = Generic.Make (A)
  include A

  type message = G.message

  type t = {
    g : G.t;
    mutable ups : float list;  (** seconds, newest first *)
    mutable qs : float list;
  }

  let protocol_name = G.protocol_name
  let created : t list ref = ref []
  let reset () = created := []

  let create ctx =
    let t = { g = G.create ctx; ups = []; qs = [] } in
    created := t :: !created;
    t

  let secs s = float_of_int (now () - s) *. 1e-9

  (* The caller's continuation runs after the stamp: in [Runner] it
     schedules the client's next invocation, which is not this one's
     latency. *)
  let update t u ~on_done =
    let s = now () in
    let completed = ref false in
    G.update t.g u ~on_done:(fun () -> completed := true);
    t.ups <- secs s :: t.ups;
    if !completed then on_done ()

  let query t q ~on_result =
    let s = now () in
    let out = ref None in
    G.query t.g q ~on_result:(fun o -> out := Some o);
    t.qs <- secs s :: t.qs;
    Option.iter on_result !out

  let receive t ~src m = G.receive t.g ~src m
  let receive_batch t ~src ms = G.receive_batch t.g ~src ms
  let message_wire_size = G.message_wire_size
  let describe_message = G.describe_message
  let log_length t = G.log_length t.g
  let metadata_bytes t = G.metadata_bytes t.g
  let certificate t = G.certificate t.g
  let snapshot t = G.snapshot t.g
  let absorb t s = G.absorb t.g s
end
