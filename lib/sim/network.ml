type delay_model =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Pareto of { scale : float; shape : float }

let draw_delay rng = function
  | Constant d -> d
  | Uniform { lo; hi } -> lo +. Prng.float rng (hi -. lo)
  | Exponential { mean } -> Prng.exponential rng ~mean
  | Pareto { scale; shape } -> Prng.pareto rng ~scale ~shape

type partition = { from_time : float; to_time : float; group : int list }

(* Dynamic membership: a replica can be scheduled to join the run late,
   leave it mid-flight and rejoin later. [Join] covers both the fresh
   joiner (no prior state) and is distinguished from [Rejoin] only in
   what the runner journals; the network treats both as "attach". *)
type churn_action = Join | Leave | Rejoin

type churn_event = { time : float; pid : int; action : churn_action }

let churn_action_name = function
  | Join -> "join"
  | Leave -> "leave"
  | Rejoin -> "rejoin"

let churn_action_of_name = function
  | "join" -> Some Join
  | "leave" -> Some Leave
  | "rejoin" -> Some Rejoin
  | _ -> None

(* Per-replica telemetry handles, resolved once at creation so the hot
   path never looks anything up by name. *)
type net_obs = {
  o : Obs.t;
  sent : Obs.Registry.counter array;
  bytes : Obs.Registry.counter array;
  delivered : Obs.Registry.counter array;
  dropped : Obs.Registry.counter array;
  batches : Obs.Registry.counter array;
  latency : Obs.Registry.hist array;
}

type 'msg t = {
  engine : Engine.t;
  rng : Prng.t;
  metrics : Metrics.t;
  n : int;
  fifo : bool;
  partitions : partition list;
  envelope : int;  (** per-frame wire overhead, amortised by batching *)
  delay : delay_model;
  record_delivery :
    (sent:float -> received:float -> src:int -> dst:int -> 'msg -> unit) option;
  wire_size : 'msg -> int;
  deliver : dst:int -> src:int -> 'msg -> unit;
  crashed : bool array;
  offline : bool array;  (** absent or left: nothing is delivered *)
  held : (int * int * float * ('msg * Obs.Span.id option) list) list option array;
      (** [Some] while a process that left is offline: the frames
          (src, count, sent, messages) that reached it, newest first *)
  last_delivery : float array array;  (** per (src, dst), for FIFO channels *)
  obs : net_obs option;
}

let make_net_obs o n =
  let per name =
    Array.init n (fun pid ->
        Obs.Registry.counter o.Obs.registry
          ~labels:[ ("pid", string_of_int pid) ]
          name)
  in
  {
    o;
    sent = per "messages_sent";
    bytes = per "bytes_sent";
    delivered = per "messages_delivered";
    dropped = per "messages_dropped";
    batches = per "batches_sent";
    latency =
      Array.init n (fun pid ->
          Obs.Registry.hist o.Obs.registry
            ~labels:[ ("pid", string_of_int pid) ]
            "delivery_latency");
  }

let create ~engine ~rng ~metrics ~n ?(fifo = false) ?(partitions = [])
    ?(envelope = 0) ?record_delivery ?obs ~delay ~wire_size ~deliver () =
  if envelope < 0 then invalid_arg "Network.create: envelope must be non-negative";
  {
    engine;
    rng;
    metrics;
    n;
    fifo;
    partitions;
    envelope;
    delay;
    record_delivery;
    wire_size;
    deliver;
    crashed = Array.make n false;
    offline = Array.make n false;
    held = Array.make n None;
    last_delivery = Array.init n (fun _ -> Array.make n 0.0);
    obs = Option.map (fun o -> make_net_obs o n) obs;
  }

let ambient t =
  match t.obs with None -> None | Some no -> Obs.Span.active no.o.Obs.spans

(* The attached journal, read at each record (it can be attached
   mid-run). Callers build the event only under [Some], so a run
   without one allocates nothing for it. *)
let journal_of t =
  match t.obs with None -> None | Some no -> no.o.Obs.journal

(* Each message leaves stamped with the span that was ambient when it
   was handed to the network (not when a buffered batch flushes). *)
let stamp t msgs =
  let span = ambient t in
  List.map (fun m -> (m, span)) msgs

let rec separated partitions ~src ~dst ~at =
  match partitions with
  | [] -> None
  | p :: rest ->
    if p.from_time <= at && at < p.to_time
       && List.mem src p.group <> List.mem dst p.group
    then Some p
    else separated rest ~src ~dst ~at

(* Earliest time >= [at] when src and dst are connected: partitions only
   delay messages (the network stays reliable). *)
let rec connected_time t ~src ~dst ~at =
  match separated t.partitions ~src ~dst ~at with
  | None -> at
  | Some p -> connected_time t ~src ~dst ~at:p.to_time

(* Hand each message of a delivered frame to [dst], in order. *)
let rec deliver_frame t ~src ~dst ~sent ~arrival = function
  | [] -> ()
  | (msg, span) :: rest ->
    t.metrics.Metrics.messages_delivered <-
      t.metrics.Metrics.messages_delivered + 1;
    t.metrics.Metrics.delivery_latency_sum <-
      t.metrics.Metrics.delivery_latency_sum +. (arrival -. sent);
    (match t.record_delivery with
    | Some record -> record ~sent ~received:arrival ~src ~dst msg
    | None -> ());
    (match t.obs with
    | None -> t.deliver ~dst ~src msg
    | Some no ->
      Obs.Registry.inc no.delivered.(dst);
      Obs.Registry.observe no.latency.(dst) (arrival -. sent);
      Obs.Span.record_deliver no.o.Obs.spans ~span ~src ~dst ~sent
        ~received:arrival;
      (* Restore the ambient span afterwards so relays triggered
         by this delivery stamp with the delivered span only
         while processing it. *)
      let saved = Obs.Span.active no.o.Obs.spans in
      Obs.Span.set_active no.o.Obs.spans span;
      t.deliver ~dst ~src msg;
      Obs.Span.record_apply no.o.Obs.spans ~span ~pid:dst ~time:arrival;
      Obs.Span.set_active no.o.Obs.spans saved);
    deliver_frame t ~src ~dst ~sent ~arrival rest

(* When a frame sent at [now] reaches [dst]. Kept out of line so the
   result is boxed once, here, and that one box is shared by the
   delivery event's time and its closure. *)
let[@inline never] arrival_time t ~src ~dst ~now =
  let arrival =
    if src = dst then now (* a process receives its own broadcast instantly *)
    else begin
      let departure = connected_time t ~src ~dst ~at:now in
      let arrival = departure +. draw_delay t.rng t.delay in
      if t.fifo then Float.max arrival t.last_delivery.(src).(dst) else arrival
    end
  in
  if t.fifo then t.last_delivery.(src).(dst) <- arrival;
  arrival

(* A frame's wire bytes: one envelope, then each message, a stamped one
   paying [span_wire_bytes] more. *)
let rec add_message_bytes t ~span_cost acc = function
  | [] -> acc
  | (m, span) :: rest ->
    let stamp_bytes = match span with None -> 0 | Some _ -> span_cost in
    add_message_bytes t ~span_cost (acc + t.wire_size m + stamp_bytes) rest

let frame_bytes t msgs =
  let span_cost = match t.obs with None -> 0 | Some no -> no.o.Obs.span_wire_bytes in
  add_message_bytes t ~span_cost t.envelope msgs

(* A frame reaching [dst] at [arrival]: delivered, held for a process
   that left until it rejoins, or dropped at a crashed or not yet joined
   one. *)
let arrive t ~src ~dst ~count ~sent ~arrival msgs =
  if t.crashed.(dst) || t.offline.(dst) then
    match t.held.(dst) with
    | Some frames -> t.held.(dst) <- Some ((src, count, sent, msgs) :: frames)
    | None ->
      t.metrics.Metrics.messages_dropped <-
        t.metrics.Metrics.messages_dropped + count;
      (match journal_of t with
      | None -> ()
      | Some j ->
        Obs.Journal.record j (Obs.Journal.Drop { pid = dst; count; time = arrival }));
      (match t.obs with
      | None -> ()
      | Some no -> Obs.Registry.inc ~by:count no.dropped.(dst))
  else begin
    (match journal_of t with
    | None -> ()
    | Some j ->
      Obs.Journal.record j (Obs.Journal.Deliver { src; dst; count; time = arrival }));
    deliver_frame t ~src ~dst ~sent ~arrival msgs
  end

(* One wire frame from [src] to [dst] carrying [msgs] in order: one
   delay draw, one envelope, one delivery event. A singleton frame is
   exactly the seed's per-message [enqueue] (with the default zero
   envelope the metrics are bit-identical). [msgs] are (message, span)
   pairs, [count] of them taking [bytes] on the wire; the caller sizes a
   frame once for all its destinations. Without obs and journal the
   only allocations are the delay draw's result and the delivery
   event's closure. *)
let enqueue t ~src ~dst ~count ~bytes msgs =
  let now = Engine.now t.engine in
  t.metrics.Metrics.messages_sent <- t.metrics.Metrics.messages_sent + count;
  t.metrics.Metrics.bytes_sent <- t.metrics.Metrics.bytes_sent + bytes;
  if count > 1 then
    t.metrics.Metrics.batches_sent <- t.metrics.Metrics.batches_sent + 1;
  (match t.obs with
  | None -> ()
  | Some no ->
    Obs.Registry.inc ~by:count no.sent.(src);
    Obs.Registry.inc ~by:bytes no.bytes.(src);
    if count > 1 then Obs.Registry.inc no.batches.(src);
    List.iter
      (fun (_, span) -> Obs.Span.record_send no.o.Obs.spans ~span ~src ~time:now)
      msgs);
  let arrival = arrival_time t ~src ~dst ~now in
  (match journal_of t with
  | None -> ()
  | Some j ->
    Obs.Journal.record j
      (Obs.Journal.Frame
         {
           src;
           dst;
           count;
           bytes;
           sent = now;
           arrival;
           spans = List.map snd msgs;
         }));
  Engine.schedule_at t.engine ~time:arrival (fun () ->
      arrive t ~src ~dst ~count ~sent:now ~arrival msgs)

let drop_from_src t ~src count =
  t.metrics.Metrics.messages_dropped <-
    t.metrics.Metrics.messages_dropped + count;
  (match journal_of t with
  | None -> ()
  | Some j ->
    Obs.Journal.record j
      (Obs.Journal.Drop { pid = src; count; time = Engine.now t.engine }));
  match t.obs with
  | None -> ()
  | Some no -> Obs.Registry.inc ~by:count no.dropped.(src)

let is_down t pid = t.crashed.(pid) || t.offline.(pid)

let send t ~src ~dst msg =
  if dst < 0 || dst >= t.n then invalid_arg "Network.send: bad destination";
  if is_down t src then drop_from_src t ~src 1
  else begin
    let frame = [ (msg, ambient t) ] in
    enqueue t ~src ~dst ~count:1 ~bytes:(frame_bytes t frame) frame
  end

(* A frame is built and sized once and the same frame goes to every
   peer. *)
let broadcast_frame t ~src ~count msgs =
  if is_down t src then begin
    for dst = 0 to t.n - 1 do
      if dst <> src then drop_from_src t ~src count
    done
  end
  else begin
    let bytes = frame_bytes t msgs in
    for dst = 0 to t.n - 1 do
      if dst <> src then enqueue t ~src ~dst ~count ~bytes msgs
    done
  end

let broadcast t ~src msg = broadcast_frame t ~src ~count:1 [ (msg, ambient t) ]

let send_stamped_batch t ~src ~dst msgs =
  if dst < 0 || dst >= t.n then invalid_arg "Network.send_batch: bad destination";
  match msgs with
  | [] -> ()
  | msgs ->
    let count = List.length msgs in
    if is_down t src then drop_from_src t ~src count
    else enqueue t ~src ~dst ~count ~bytes:(frame_bytes t msgs) msgs

let send_batch t ~src ~dst msgs = send_stamped_batch t ~src ~dst (stamp t msgs)

let broadcast_stamped_batch t ~src msgs =
  if msgs <> [] then broadcast_frame t ~src ~count:(List.length msgs) msgs

let broadcast_batch t ~src msgs = broadcast_stamped_batch t ~src (stamp t msgs)

(* Hand held frames to [arrive] now, in send order: delivered to a
   process that rejoined, dropped at one that crashed. *)
let release t pid frames =
  let now = Engine.now t.engine in
  List.stable_sort (fun (_, _, a, _) (_, _, b, _) -> Float.compare a b) (List.rev frames)
  |> List.iter (fun (src, count, sent, msgs) ->
         arrive t ~src ~dst:pid ~count ~sent ~arrival:now msgs)

let crash t pid =
  t.crashed.(pid) <- true;
  let frames = Option.value t.held.(pid) ~default:[] in
  t.held.(pid) <- None;
  release t pid frames

let is_crashed t pid = t.crashed.(pid)

(* Churn. A process that leaves keeps its state, and the frames that
   reach it while it is away are held and delivered, in send order,
   when it rejoins: the paper's channels between correct processes are
   reliable, and a temporary absence must not break that. A process
   that has not joined yet has no state to deliver into, so frames to
   it drop, as frames to a crashed one do. *)
let detach t pid =
  t.offline.(pid) <- true;
  if t.held.(pid) = None then t.held.(pid) <- Some []

let absent t pid = t.offline.(pid) <- true

let attach t pid =
  t.offline.(pid) <- false;
  let frames = Option.value t.held.(pid) ~default:[] in
  t.held.(pid) <- None;
  if frames <> [] then
    Engine.schedule_at t.engine ~time:(Engine.now t.engine) (fun () ->
        release t pid frames)

let is_offline t pid = t.offline.(pid)

(* Whether src and dst are on opposite sides of some partition at [at];
   catch-up transfers consult this so a joiner cannot sync across a
   partition it could not have talked through. *)
let separated_at t ~src ~dst ~at = separated t.partitions ~src ~dst ~at <> None

let alive t =
  let rec collect i acc =
    if i < 0 then acc else collect (i - 1) (if t.crashed.(i) then acc else i :: acc)
  in
  collect (t.n - 1) []
