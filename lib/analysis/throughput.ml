(* Wall-clock throughput of the multicore replica engine, with the
   Proposition 4 differential that makes the numbers trustworthy.

   The engine ([Parallel_engine]) runs one replica per domain under a
   real OS schedule, so no two runs deliver messages in the same order.
   Under strong update consistency that must not matter: the state
   reached depends only on the timestamp total order of the update
   multiset (Prop. 4). This module turns that theorem into an oracle.
   After a parallel run quiesces it checks, per seed:

   1. every replica holds the identical timestamp-sorted log
      (pairwise convergence — certificates and logs compare equal);
   2. every replica's ω answer equals the query evaluated on the
      timestamp-order fold of that log's update multiset;
   3. a fresh replica of the {e sequential} core, restored from the
      converged log ([Generic.restore_log], the persistence/replay
      path) and queried, answers the same;
   4. for commutative specs, a full sequential [Runner] simulation of
      the very same per-process scripts reaches the same ω answer
      (sound only under commutativity: the virtual-time runner assigns
      different timestamps, and order-independence is what erases
      that difference);
   5. no update was lost or duplicated: the converged log length
      equals the number of updates the clients issued.

   Any mismatch is a bug in the engine (or a domain-safety bug in the
   cores), never schedule noise — which is exactly why the CI smoke can
   gate on it while throughput numbers remain hardware-dependent. *)

let dummy_ctx ~pid ~n : _ Protocol.ctx =
  {
    Protocol.pid;
    n;
    now = (fun () -> 0.0);
    send = (fun ~dst:_ _ -> ());
    broadcast = (fun _ -> ());
    broadcast_batch = (fun _ -> ());
    set_timer = (fun ~delay:_ _ -> ());
    count_replay = (fun _ -> ());
    obs = None;
  }

type row = {
  spec : string;
  domains : int;
  ops_per_domain : int;
  total_ops : int;
  updates : int;
  batch : int;  (* sender-side coalescing threshold the cell ran with *)
  flush_window : int;  (* forced-flush cadence in invocations; 0 = none *)
  frames : int;  (* mailbox frames actually pushed, summed over domains *)
  wall_s : float;
  ops_per_sec : float;
  p50_us : float;
  p99_us : float;
  mailbox_max_depth : int;
  mailbox_stalls : int;
  ok : bool;
}

let emit_json path rows =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "  {\"spec\": %S, \"domains\": %d, \"ops_per_domain\": %d, \
         \"total_ops\": %d, \"updates\": %d, \"batch\": %d, \
         \"flush_window\": %d, \"frames\": %d, \"wall_s\": %.6f, \
         \"ops_per_sec\": %.1f, \"p50_us\": %.2f, \"p99_us\": %.2f, \
         \"mailbox_max_depth\": %d, \"mailbox_stalls\": %d, \"ok\": %b}%s\n"
        r.spec r.domains r.ops_per_domain r.total_ops r.updates r.batch
        r.flush_window r.frames r.wall_s r.ops_per_sec r.p50_us r.p99_us
        r.mailbox_max_depth r.mailbox_stalls r.ok
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc

(* Wall-clock time series from a merged recorder stream: per-pid
   cumulative counters snapshotted on a fixed cadence of the recorded
   wall clock. Spec-agnostic — only event kinds matter — so it lives
   outside the functor. The stream is walked in merge order; the tick
   clock is the running max of the wall stamps (domains share one
   clock, but the Lamport merge is not exactly wall-sorted). *)
let series_of_events ?capacity ?(interval = 0.01) ?sink events =
  let reg = Obs.Registry.create () in
  let sampler = Obs.Series.sampler ?capacity ~registry:reg ~interval () in
  (match sink with None -> () | Some s -> Obs.Series.set_sink sampler s);
  let counter pid name =
    Obs.Registry.counter reg ~labels:[ ("pid", string_of_int pid) ] name
  in
  let now = ref 0.0 in
  List.iter
    (fun ev ->
      now := Float.max !now (Obs.Recorder.event_wall ev);
      (match (ev : Obs.Recorder.event) with
      | Invoke_update { pid; _ } ->
        Obs.Registry.inc (counter pid "ops");
        Obs.Registry.inc (counter pid "updates")
      | Invoke_query { pid; _ } -> Obs.Registry.inc (counter pid "ops")
      | Send { pid; count; _ } ->
        Obs.Registry.inc (counter pid "frames_sent");
        Obs.Registry.inc ~by:count (counter pid "messages_sent")
      | Deliver { pid; count; _ } ->
        Obs.Registry.inc ~by:count (counter pid "messages_received")
      | Stall { pid; _ } -> Obs.Registry.inc (counter pid "mailbox_stalls"));
      Obs.Series.maybe_tick sampler ~now:!now)
    events;
  (* Force a closing sample so short runs still chart. *)
  if events <> [] then Obs.Series.tick sampler ~now:!now;
  Obs.Series.store sampler

module Bench (A : Uqadt.S) = struct
  module G = Generic.Make (A)
  module E = Parallel_engine.Make (G)
  module Run = Uqadt.Run (A)
  module Seq = Runner.Make (G)
  module Mon = Obs.Monitor.Make (A)

  type recording = {
    events : Obs.Recorder.event list;  (* merged (lamport, pid, seq) *)
    journal : Obs.Journal.t;  (* rebuilt from the stream, sealed *)
    fingerprint : string;  (* recorded history's fingerprint *)
    replay : (string, string) result;
        (* [Ok fp]: the sequential core, fed the recorded per-replica
           delivery order, reproduced the footer fingerprint *)
    monitor : Mon.t option;  (* when criteria were requested *)
  }

  type verdict = {
    run : E.result;
    latency : Stats.summary option;
    logs_agree : bool;
    omega_matches_fold : bool;
    replay_matches_fold : bool;
    runner_matches : bool option;  (* [None] for non-commutative specs *)
    updates_conserved : bool;
    journal_replay : bool option;  (* [None] when no recorder was attached *)
    recording : recording option;
    state_repr : string;  (* rendered timestamp-order fold *)
    stages : (string * float) list;  (* wall-clock seconds per stage *)
  }

  let ok v =
    v.run.E.outputs_agree && v.run.E.certificates_agree && v.logs_agree
    && v.omega_matches_fold && v.replay_matches_fold && v.updates_conserved
    && v.runner_matches <> Some false
    && v.journal_replay <> Some false

  (* ------------------- recorded-stream resolution -------------------
     The recorder stores no payloads: an [Invoke_update] record says "my
     domain issued its next script entry", nothing more. Because the
     scripts are pure functions of the seed and the merge preserves every
     domain's program order, walking the merged stream with one script
     cursor per domain re-associates every record with its typed update,
     query, and output. A misalignment means the stream and the scripts
     disagree — that is a corrupt recording, reported loudly. *)

  let stream_error fmt = Printf.ksprintf failwith fmt

  (* Walk the merged stream, resolving invocations to typed values.
     [on_update] and [on_query] receive the event's index in the merged
     stream — which is also its journal event index. *)
  let walk_stream ~scripts ~(final_read : A.query) ~query_outputs
      ~omega_outputs ~on_update ~on_query ~on_other events =
    let cursors = Array.map (fun s -> ref s) scripts in
    let out_cursors = Array.map (fun o -> ref o) query_outputs in
    let next_inv pid =
      match !(cursors.(pid)) with
      | [] -> stream_error "recorded stream: domain %d invoked past its script" pid
      | inv :: rest ->
        cursors.(pid) := rest;
        inv
    in
    let next_out pid =
      match !(out_cursors.(pid)) with
      | [] ->
        stream_error "recorded stream: domain %d has no recorded query output"
          pid
      | o :: rest ->
        out_cursors.(pid) := rest;
        o
    in
    List.iteri
      (fun index ev ->
        match (ev : Obs.Recorder.event) with
        | Invoke_update { pid; wall; _ } -> (
          match next_inv pid with
          | Protocol.Invoke_update u -> on_update ~pid ~index ~wall u
          | Protocol.Invoke_query _ ->
            stream_error
              "recorded stream: domain %d recorded an update where its \
               script has a query"
              pid)
        | Invoke_query { pid; wall; omega = false; _ } -> (
          match next_inv pid with
          | Protocol.Invoke_query q ->
            on_query ~pid ~index ~wall ~omega:false q (next_out pid)
          | Protocol.Invoke_update _ ->
            stream_error
              "recorded stream: domain %d recorded a query where its \
               script has an update"
              pid)
        | Invoke_query { pid; wall; omega = true; _ } -> (
          match List.assoc_opt pid omega_outputs with
          | Some o -> on_query ~pid ~index ~wall ~omega:true final_read o
          | None ->
            stream_error "recorded stream: domain %d has no recorded ω answer"
              pid)
        | Send _ | Deliver _ | Stall _ -> on_other ~index ev)
      events;
    Array.iteri
      (fun pid c ->
        if !c <> [] then
          stream_error
            "recorded stream: domain %d stopped %d invocation(s) short of \
             its script"
            pid (List.length !c))
      cursors

  (* The recorded history: one line per domain, in program order, ω
     read last — exactly what [History.make] wants. *)
  let history_of_events ~scripts ~final_read ~query_outputs ~omega_outputs
      events =
    let lines = Array.make (Array.length scripts) [] in
    walk_stream ~scripts ~final_read ~query_outputs ~omega_outputs events
      ~on_update:(fun ~pid ~index:_ ~wall:_ u ->
        lines.(pid) <- History.U u :: lines.(pid))
      ~on_query:(fun ~pid ~index:_ ~wall:_ ~omega q o ->
        lines.(pid) <-
          (if omega then History.Qw (q, o) else History.Q (q, o))
          :: lines.(pid))
      ~on_other:(fun ~index:_ _ -> ());
    History.make (Array.to_list (Array.map List.rev lines))

  let history_fingerprint h =
    History.fingerprint A.pp_update A.pp_query A.pp_output h

  (* Rebuild a standard journal from the merged stream. Frame arrival
     times are patched from the matching deliver record (per-(src,dst)
     FIFO — the mailbox preserves per-producer order); a frame still in
     flight when the stream ends keeps its send time. *)
  let journal_of_events ?(header = []) ~scripts ~final_read ~query_outputs
      ~omega_outputs events =
    let arr = Array.of_list events in
    let arrival = Array.map Obs.Recorder.event_wall arr in
    let pending = Hashtbl.create 64 in
    Array.iteri
      (fun i ev ->
        match (ev : Obs.Recorder.event) with
        | Send { pid; dst; _ } ->
          let key = (pid, dst) in
          let q =
            match Hashtbl.find_opt pending key with
            | Some q -> q
            | None ->
              let q = Queue.create () in
              Hashtbl.add pending key q;
              q
          in
          Queue.push i q
        | Deliver { pid; src; wall; _ } -> (
          match Hashtbl.find_opt pending (src, pid) with
          | Some q when not (Queue.is_empty q) ->
            arrival.(Queue.pop q) <- wall
          | _ ->
            stream_error
              "recorded stream: deliver %d->%d without a matching send" src
              pid)
        | _ -> ())
      arr;
    let journal = Obs.Journal.create ~header () in
    walk_stream ~scripts ~final_read ~query_outputs ~omega_outputs events
      ~on_update:(fun ~pid ~index:_ ~wall u ->
        Obs.Journal.record journal
          (Obs.Journal.Update
             {
               pid;
               time = wall;
               span = None;
               label = Format.asprintf "%a" A.pp_update u;
             }))
      ~on_query:(fun ~pid ~index:_ ~wall ~omega q o ->
        Obs.Journal.record journal
          (Obs.Journal.Query
             {
               pid;
               invoked = wall;
               completed = wall;
               span = None;
               label = Format.asprintf "%a" A.pp_query q;
               output = Format.asprintf "%a" A.pp_output o;
               omega;
             }))
      ~on_other:(fun ~index ev ->
        match (ev : Obs.Recorder.event) with
        | Send { pid; dst; count; bytes; wall; _ } ->
          Obs.Journal.record journal
            (Obs.Journal.Frame
               {
                 src = pid;
                 dst;
                 count;
                 bytes;
                 sent = wall;
                 arrival = arrival.(index);
                 spans = List.init count (fun _ -> None);
               })
        | Deliver { pid; src; count; wall; _ } ->
          Obs.Journal.record journal
            (Obs.Journal.Deliver { src; dst = pid; count; time = wall })
        | Stall { pid; dst; wall; _ } ->
          Obs.Journal.record journal
            (Obs.Journal.Stall { pid; dst; time = wall })
        | Invoke_update _ | Invoke_query _ -> assert false);
    let fp =
      history_fingerprint
        (history_of_events ~scripts ~final_read ~query_outputs ~omega_outputs
           events)
    in
    Obs.Journal.seal journal ~fingerprint:fp;
    journal

  (* ------------------------- replay bridge --------------------------
     Re-execute a recorded journal on the sequential core: one [G]
     replica per domain whose sends are captured into per-(src,dst) FIFO
     queues, so a [Deliver] journal event pops exactly the messages the
     recorded frame carried. The per-replica event order reproduces each
     replica's timestamp evolution, hence its outputs, hence the history
     fingerprint — Proposition 4 made executable. *)

  let replay_journal ~scripts ~(final_read : A.query) journal =
    let n = Array.length scripts in
    let queues = Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ())) in
    let capture_ctx pid : _ Protocol.ctx =
      {
        Protocol.pid;
        n;
        now = (fun () -> 0.0);
        send = (fun ~dst msg -> Queue.push msg queues.(pid).(dst));
        broadcast =
          (fun msg ->
            for dst = 0 to n - 1 do
              if dst <> pid then Queue.push msg queues.(pid).(dst)
            done);
        broadcast_batch =
          (fun msgs ->
            for dst = 0 to n - 1 do
              if dst <> pid then
                List.iter (fun m -> Queue.push m queues.(pid).(dst)) msgs
            done);
        set_timer = (fun ~delay:_ _ -> ());
        count_replay = (fun _ -> ());
        obs = None;
      }
    in
    let replicas = Array.init n (fun pid -> G.create (capture_ctx pid)) in
    let cursors = Array.map (fun s -> ref s) scripts in
    let lines = Array.make n [] in
    let next_inv pid =
      match !(cursors.(pid)) with
      | [] -> stream_error "replay: domain %d invoked past its script" pid
      | inv :: rest ->
        cursors.(pid) := rest;
        inv
    in
    try
      List.iter
        (fun ev ->
          match (ev : Obs.Journal.event) with
          | Update { pid; _ } -> (
            match next_inv pid with
            | Protocol.Invoke_update u ->
              G.update replicas.(pid) u ~on_done:ignore;
              lines.(pid) <- History.U u :: lines.(pid)
            | Protocol.Invoke_query _ ->
              stream_error "replay: update event where script has a query")
          | Query { pid; omega = false; _ } -> (
            match next_inv pid with
            | Protocol.Invoke_query q ->
              let out = ref None in
              G.query replicas.(pid) q ~on_result:(fun o -> out := Some o);
              (match !out with
              | Some o -> lines.(pid) <- History.Q (q, o) :: lines.(pid)
              | None -> stream_error "replay: query returned no output")
            | Protocol.Invoke_update _ ->
              stream_error "replay: query event where script has an update")
          | Query { pid; omega = true; _ } ->
            let out = ref None in
            G.query replicas.(pid) final_read ~on_result:(fun o ->
                out := Some o);
            (match !out with
            | Some o -> lines.(pid) <- History.Qw (final_read, o) :: lines.(pid)
            | None -> stream_error "replay: ω read returned no output")
          | Deliver { src; dst; count; _ } ->
            (* Pop the recorded frame's messages as one envelope and
               deliver them through the same batch entry point the
               parallel engine used, so the replay leg exercises the
               coalesced path it is certifying. *)
            let msgs = ref [] in
            for _ = 1 to count do
              if Queue.is_empty queues.(src).(dst) then
                stream_error
                  "replay: deliver %d->%d exceeds the captured sends" src dst;
              msgs := Queue.pop queues.(src).(dst) :: !msgs
            done;
            G.receive_batch replicas.(dst) ~src (List.rev !msgs)
          | Frame _ | Stall _ -> ()
          | Drop _ | Crash _ | Join _ | Leave _ | Partition _ | Probe _
          | Rebalance _ | Shard _ | Alert _ ->
            stream_error "replay: journal carries sequential-engine events")
        (Obs.Journal.events journal);
      let h = History.make (Array.to_list (Array.map List.rev lines)) in
      let fp = history_fingerprint h in
      match Obs.Journal.fingerprint journal with
      | Some recorded when recorded = fp -> Ok fp
      | Some recorded ->
        Error
          (Printf.sprintf "fingerprint mismatch: recorded %s, replayed %s"
             recorded fp)
      | None -> Error "journal has no fingerprint (unsealed recording)"
    with Failure msg -> Error msg

  (* Feed the merged stream through the online monitors — the same
     resolution walk the journal builder uses, so a violation's [index]
     is the journal event index. *)
  let feed_monitor ~criteria ~scripts ~final_read ~query_outputs
      ~omega_outputs events =
    let mon = Mon.create ~n:(Array.length scripts) ~criteria in
    walk_stream ~scripts ~final_read ~query_outputs ~omega_outputs events
      ~on_update:(fun ~pid ~index ~wall:_ u ->
        Mon.on_update mon ~pid ~index ~span:None u)
      ~on_query:(fun ~pid ~index ~wall:_ ~omega q o ->
        Mon.on_query mon ~pid ~index ~span:None ~omega q o)
      ~on_other:(fun ~index:_ _ -> ());
    mon

  (* Independent per-domain client streams: one [Prng.fork] child per
     domain off a root seeded by the caller, so the whole workload is a
     pure function of (seed, domains, ops) while no two domains ever
     walk correlated streams. *)
  let uniform_scripts ~seed ~domains ~ops ~query_ratio =
    let root = Prng.create seed in
    let script () =
      (* Explicit recursion: the draw order is part of the determinism
         contract, and [List.init]'s evaluation order is not. Each
         invocation is drawn before the rest of the script, and
         [tail_mod_cons] builds the list front to back in constant
         stack without a reversed copy to promote and discard. *)
      let g = Prng.fork root in
      let[@tail_mod_cons] rec draw k =
        if k = 0 then []
        else
          let inv =
            if query_ratio > 0.0 && Prng.bernoulli g query_ratio then
              Protocol.Invoke_query (A.random_query g)
            else Protocol.Invoke_update (A.random_update g)
          in
          inv :: draw (k - 1)
      in
      draw ops
    in
    let scripts = Array.make domains [] in
    for pid = 0 to domains - 1 do
      scripts.(pid) <- script ()
    done;
    scripts

  let measure ?(mailbox_capacity = 1024) ?(batch_every = 1) ?(flush_window = 0)
      ?obs ?recorder ?monitor ?journal_header ?(seq_seed = 0) ~domains
      ~final_read ~scripts () =
    let cfg =
      {
        E.domains;
        mailbox_capacity;
        envelope = 0;
        batch_every;
        flush_window;
        final_read = Some final_read;
        obs;
        recorder;
      }
    in
    (* Wall-clock seconds of each stage, in the order they run. *)
    let stages = ref [] in
    let timed name f =
      let t0 = Unix.gettimeofday () in
      let x = f () in
      stages := (name, Unix.gettimeofday () -. t0) :: !stages;
      x
    in
    let run = timed "engine" (fun () -> E.run cfg ~workload:scripts) in
    let r0 = run.E.replicas.(0) in
    let logs_agree =
      timed "log agreement" (fun () -> Array.for_all (G.same_log r0) run.E.replicas)
    in
    (* Replica 0's list, built once: the fold and the restore read it. *)
    let log0, folded, expected, omega_matches_fold =
      timed "fold" (fun () ->
          let log0 = G.local_log r0 in
          let folded = Run.final_state (List.map (fun (_, _, u) -> u) log0) in
          let expected = A.eval folded final_read in
          ( log0,
            folded,
            expected,
            run.E.outputs <> []
            && List.for_all (fun (_, o) -> A.equal_output o expected) run.E.outputs ))
    in
    (* The sequential core replays the converged log through the exact
       persistence-restore path the crash-recovery tests exercise. *)
    let replay_matches_fold =
      timed "restore and query" (fun () ->
          let fresh = G.create (dummy_ctx ~pid:0 ~n:1) in
          G.restore_log fresh log0;
          let replayed = ref None in
          G.query fresh final_read ~on_result:(fun o -> replayed := Some o);
          match !replayed with
          | Some o -> A.equal_output o expected
          | None -> false)
    in
    let updates_conserved = List.length log0 = run.E.updates_total in
    let runner_matches =
      if not A.commutative then None
      else
        timed "sequential clause" (fun () ->
            let sc =
              {
                (Seq.default_config ~n:domains ~seed:seq_seed) with
                Seq.final_read = Some final_read;
              }
            in
            let sr = Seq.run sc ~workload:scripts in
            Some
              (sr.Seq.converged
              && sr.Seq.final_outputs <> []
              && List.for_all
                   (fun (_, o) -> A.equal_output o expected)
                   sr.Seq.final_outputs))
    in
    let recording =
      match recorder with
      | None -> None
      | Some r ->
        timed "recording" (fun () ->
            let events = Obs.Recorder.events r in
            let query_outputs = run.E.query_outputs in
            let omega_outputs = run.E.outputs in
            let journal =
              journal_of_events ?header:journal_header ~scripts ~final_read
                ~query_outputs ~omega_outputs events
            in
            let fingerprint = Option.get (Obs.Journal.fingerprint journal) in
            let replay = replay_journal ~scripts ~final_read journal in
            let monitor =
              Option.map
                (fun criteria ->
                  feed_monitor ~criteria ~scripts ~final_read ~query_outputs
                    ~omega_outputs events)
                monitor
            in
            Some { events; journal; fingerprint; replay; monitor })
    in
    let latency = timed "latency summary" (fun () -> E.latency_summary run) in
    {
      run;
      latency;
      logs_agree;
      omega_matches_fold;
      replay_matches_fold;
      runner_matches;
      updates_conserved;
      journal_replay =
        Option.map
          (fun r -> match r.replay with Ok _ -> true | Error _ -> false)
          recording;
      recording;
      state_repr = Format.asprintf "%a" A.pp_state folded;
      stages = List.rev !stages;
    }

  let row ?(batch = 1) ?(flush_window = 0) ~ops_per_domain v =
    let p50, p99 =
      match v.latency with
      | None -> (0.0, 0.0)
      | Some s -> (s.Stats.p50 *. 1e6, s.Stats.p99 *. 1e6)
    in
    let reports = v.run.E.reports in
    {
      spec = A.name;
      domains = Array.length reports;
      ops_per_domain;
      total_ops = v.run.E.ops_total;
      updates = v.run.E.updates_total;
      batch;
      flush_window;
      frames =
        Array.fold_left
          (fun acc r -> acc + r.Parallel_engine.frames_sent)
          0 reports;
      wall_s = v.run.E.wall_seconds;
      ops_per_sec = v.run.E.throughput;
      p50_us = p50;
      p99_us = p99;
      mailbox_max_depth =
        Array.fold_left
          (fun acc r -> max acc r.Parallel_engine.mailbox_max_depth)
          0 reports;
      mailbox_stalls =
        Array.fold_left
          (fun acc r -> acc + r.Parallel_engine.mailbox_stalls)
          0 reports;
      ok = ok v;
    }
end

type shard_row = {
  shard_spec : string;
  shards : int;
  shard_domains : int;
  keys : int;
  skew : float;
  fanout : int;
  shard_total_ops : int;
  keyed_updates : int;
  shard_wall_s : float;
  shard_ops_per_sec : float;
  shard_log_max : int;
  shard_log_min : int;
  shard_ok : bool;
}

let emit_shard_json path rows =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "  {\"spec\": %S, \"shards\": %d, \"domains\": %d, \"keys\": %d, \
         \"skew\": %.3f, \"fanout\": %d, \"total_ops\": %d, \
         \"keyed_updates\": %d, \"wall_s\": %.6f, \"ops_per_sec\": %.1f, \
         \"shard_log_max\": %d, \"shard_log_min\": %d, \"ok\": %b}%s\n"
        r.shard_spec r.shards r.shard_domains r.keys r.skew r.fanout
        r.shard_total_ops r.keyed_updates r.shard_wall_s r.shard_ops_per_sec
        r.shard_log_max r.shard_log_min r.shard_ok
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc

(* The same oracle, shard-aware: the space runs one Algorithm 1 core
   per shard, so Proposition 4 applies {e per shard} — after
   quiescence every replica must hold, for every shard, the identical
   timestamp-sorted inner log; the ω sweep must equal the keyed fold
   of the union of those logs; and the whole-space snapshot/absorb
   path (the one churn catch-up and shard migration ride) must restore
   a fresh replica to the same answer. Conservation counts {e keyed}
   sub-updates: one client batch of width w contributes w inner log
   entries, spread across the shards its keys route to. *)
module Sharded
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) =
struct
  module S = Space.Make (A) (C)
  module E = Parallel_engine.Make (S)

  type verdict = {
    run : E.result;
    latency : Stats.summary option;
    shards : int;
    keyed_total : int;
    shard_logs_agree : bool;
    omega_matches_fold : bool;
    snapshot_matches_fold : bool;
    updates_conserved : bool;
    shard_lengths : (int * int) list;
    state_repr : string;
  }

  let ok v =
    v.run.E.outputs_agree && v.run.E.certificates_agree && v.shard_logs_agree
    && v.omega_matches_fold && v.snapshot_matches_fold && v.updates_conserved

  let zipf_scripts ~seed ~domains ~ops ~keys ~skew ~fanout ~query_ratio =
    let root = Prng.create seed in
    let script () =
      (* explicit loops: draw order is part of the determinism contract *)
      let g = Prng.fork root in
      let z = Zipf.create ~n:keys ~s:skew in
      let key () = Zipf.sample z g - 1 in
      let acc = ref [] in
      for _ = 1 to ops do
        let inv =
          if query_ratio > 0.0 && Prng.float g 1.0 < query_ratio then
            Protocol.Invoke_query (S.K.Read (key (), A.random_query g))
          else begin
            let width = if fanout <= 1 then 1 else 1 + Prng.int g fanout in
            let batch = ref [] in
            for _ = 1 to width do
              let k = key () in
              let u = A.random_update g in
              batch := (k, u) :: !batch
            done;
            Protocol.Invoke_update (List.rev !batch)
          end
        in
        acc := inv :: !acc
      done;
      List.rev !acc
    in
    let scripts = Array.make domains [] in
    for pid = 0 to domains - 1 do
      scripts.(pid) <- script ()
    done;
    scripts

  let keyed_total scripts =
    Array.fold_left
      (fun acc script ->
        List.fold_left
          (fun acc -> function
            | Protocol.Invoke_update kus -> acc + List.length kus
            | Protocol.Invoke_query _ -> acc)
          acc script)
      0 scripts

  let measure ?(mailbox_capacity = 1024) ?(batch_every = 1) ?(flush_window = 0)
      ?obs ?vnodes ~shards ~domains ~scripts () =
    (* Static ring: no policy, so replicas never mutate shared ring
       state during the parallel run. *)
    let map = S.create_map ?vnodes ?obs ~shards () in
    S.configure map;
    let cfg =
      {
        E.domains;
        mailbox_capacity;
        envelope = 0;
        batch_every;
        flush_window;
        final_read = Some S.K.Sweep;
        obs;
        (* Sharded-space recording is out of scope: the flight recorder
           targets the one-core-per-domain engine (the CLI rejects the
           combination). *)
        recorder = None;
      }
    in
    let run = E.run cfg ~workload:scripts in
    let logs_of r =
      List.filter (fun (_, l) -> l <> []) (S.shard_logs r)
    in
    let logs0 = logs_of run.E.replicas.(0) in
    let shard_logs_agree =
      Array.for_all (fun r -> logs_of r = logs0) run.E.replicas
    in
    let merged =
      List.concat_map snd logs0
      |> List.sort (fun (a, _, _) (b, _, _) -> Timestamp.compare a b)
    in
    let folded =
      List.fold_left (fun m (_, _, ku) -> S.apply m [ ku ]) S.initial merged
    in
    let expected = S.eval folded S.K.Sweep in
    let omega_matches_fold =
      run.E.outputs <> []
      && List.for_all (fun (_, o) -> S.equal_output o expected) run.E.outputs
    in
    let snapshot_matches_fold =
      match S.snapshot run.E.replicas.(0) with
      | None -> false
      | Some frame ->
        let fresh = S.create (dummy_ctx ~pid:0 ~n:domains) in
        S.absorb fresh frame
        &&
        let out = ref None in
        S.query fresh S.K.Sweep ~on_result:(fun o -> out := Some o);
        (match !out with
        | Some o -> S.equal_output o expected
        | None -> false)
    in
    let keyed = keyed_total scripts in
    let updates_conserved =
      List.fold_left (fun acc (_, l) -> acc + List.length l) 0 logs0 = keyed
    in
    {
      run;
      latency = E.latency_summary run;
      shards;
      keyed_total = keyed;
      shard_logs_agree;
      omega_matches_fold;
      snapshot_matches_fold;
      updates_conserved;
      shard_lengths = S.shard_log_lengths run.E.replicas.(0);
      state_repr = Format.asprintf "%a" S.pp_state folded;
    }

  let row ~keys ~skew ~fanout v : shard_row =
    let lens = List.map snd v.shard_lengths in
    {
      shard_spec = A.name;
      shards = v.shards;
      shard_domains = Array.length v.run.E.reports;
      keys;
      skew;
      fanout;
      shard_total_ops = v.run.E.ops_total;
      keyed_updates = v.keyed_total;
      shard_wall_s = v.run.E.wall_seconds;
      shard_ops_per_sec = v.run.E.throughput;
      shard_log_max = List.fold_left max 0 lens;
      shard_log_min =
        (match lens with [] -> 0 | x :: r -> List.fold_left min x r);
      shard_ok = ok v;
    }
end

(* The Zipf-skewed or-set workload the sequential experiments use
   ([Workload.For_set.conflict] shape), cut per domain: hot keys are
   shared across every domain, so late arrivals really do land mid-log
   and the engine's convergence is tested under genuine contention. *)
let set_zipf_scripts ~seed ~domains ~ops ~skew ~delete_ratio =
  let root = Prng.create seed in
  let script () =
    let g = Prng.fork root in
    let z = Zipf.create ~n:512 ~s:skew in
    let acc = ref [] in
    for _ = 1 to ops do
      let v = Zipf.sample z g in
      let inv =
        if Prng.float g 1.0 < delete_ratio then
          Protocol.Invoke_update (Set_spec.Delete v)
        else Protocol.Invoke_update (Set_spec.Insert v)
      in
      acc := inv :: !acc
    done;
    List.rev !acc
  in
  let scripts = Array.make domains [] in
  for pid = 0 to domains - 1 do
    scripts.(pid) <- script ()
  done;
  scripts
