(* Runtime (GC) pause intervals per domain, read from the OCaml 5
   runtime event rings. Only outermost runtime phases are kept: a minor
   collection's sub-phases nest inside it, so the outermost interval is
   the time the domain's mutator was stopped. Rings are indexed by the
   runtime's domain slot, which is neither a replica pid nor the id
   [Domain.self] returns, so each replica announces itself with a user
   event on its own ring ([mark]) and [ring_of] maps pid to ring. *)

type Runtime_events.User.tag += Replica

let replica_event =
  Runtime_events.User.register "perfbench.replica" Replica Runtime_events.Type.int

(* Called on the replica's own domain; a no-op unless [start] ran. *)
let mark pid = Runtime_events.User.write replica_event pid

type t = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  intervals : (int * int) list array;  (** per ring, newest first *)
  lost : int ref;  (** events the rings overwrote before a poll *)
  rings_of : (int, int) Hashtbl.t;  (** replica pid to ring *)
}

let rings = 256

let start () =
  Runtime_events.start ();
  let depth = Array.make rings 0 and opened = Array.make rings 0 in
  let intervals = Array.make rings [] and lost = ref 0 in
  let rings_of = Hashtbl.create 16 in
  let stamp ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts _ ->
        if ring < rings then begin
          if depth.(ring) = 0 then opened.(ring) <- stamp ts;
          depth.(ring) <- depth.(ring) + 1
        end)
      ~runtime_end:(fun ring ts _ ->
        if ring < rings && depth.(ring) > 0 then begin
          depth.(ring) <- depth.(ring) - 1;
          if depth.(ring) = 0 then
            intervals.(ring) <- (opened.(ring), stamp ts) :: intervals.(ring)
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
    |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.int
         (fun ring _ ev pid ->
           if Runtime_events.User.tag ev = Replica then Hashtbl.replace rings_of pid ring)
  in
  { cursor = Runtime_events.create_cursor None; callbacks; intervals; lost; rings_of }

let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None : int)

(* Forget everything recorded so far. *)
let clear t =
  poll t;
  Array.fill t.intervals 0 rings [];
  Hashtbl.reset t.rings_of;
  t.lost := 0

let ring_of t pid = Hashtbl.find_opt t.rings_of pid

(* The pauses of domain [ring] that fall in [lo, hi], clipped, oldest
   first. Call [poll] first. *)
let within t ~ring ~lo ~hi =
  List.rev t.intervals.(ring)
  |> List.filter_map (fun (s, e) ->
         let s = max s lo and e = min e hi in
         if e > s then Some (s, e) else None)
