module Make (P : Protocol.PROTOCOL) = struct
  module Mon = Obs.Monitor.Make (P)

  type action = (P.update, P.query) Protocol.invocation

  type config = {
    seed : int;
    n : int;
    delay : Network.delay_model;
    fifo : bool;
    partitions : Network.partition list;
    crashes : (float * int) list;
    churn : Network.churn_event list;
    think : Network.delay_model;
    final_read : P.query option;
    deadline : float;
    trace : bool;
    batch_window : float option;
    envelope : int;
    obs : Obs.t option;
    probe_interval : float option;
    fingerprint : (P.t -> string) option;
    monitor : Mon.t option;
    sampler : Obs.Series.sampler option;
  }

  let default_config ~n ~seed =
    {
      seed;
      n;
      delay = Network.Uniform { lo = 1.0; hi = 10.0 };
      fifo = false;
      partitions = [];
      crashes = [];
      churn = [];
      think = Network.Exponential { mean = 5.0 };
      final_read = None;
      deadline = 1e7;
      trace = false;
      batch_window = None;
      envelope = 0;
      obs = None;
      probe_interval = None;
      fingerprint = None;
      monitor = None;
      sampler = None;
    }

  (* Replica state fingerprint for the divergence probe when the caller
     supplies none: the certificate if the protocol keeps one, the log
     length otherwise (coarse, but monotone under convergence). *)
  let default_fingerprint r =
    match P.certificate r with
    | Some cert ->
      String.concat ";"
        (List.map
           (fun (p, u) -> Format.asprintf "%d:%a" p P.pp_update u)
           cert)
    | None -> Printf.sprintf "log:%d" (P.log_length r)

  (* Per-replica registry handles for the operation-level series the
     runner itself records. *)
  type runner_obs = {
    upd : Obs.Registry.counter array;
    qry : Obs.Registry.counter array;
    comp : Obs.Registry.counter array;
    rep : Obs.Registry.counter array;
    lat : Obs.Registry.hist array;
  }

  type result = {
    history : (P.update, P.query, P.output) History.t;
    metrics : Metrics.t;
    op_latencies : float array;
    final_outputs : (int * P.output) list;
    converged : bool;
    certificates : (int * (int * P.update) list) list;
    certificates_agree : bool;
    log_lengths : (int * int) list;
    metadata_bytes : (int * int) list;
    sim_duration : float;
    trace : Trace.t option;
    intervals : Check_lin.intervals;
  }

  (* One process's recorded operations in program order: their history
     labels (which {!History.init} shares, not copies) with their
     invocation and response times (unboxed), written by index — an
     update's response lands in [finishes] when it returns. A process
     records at most one operation per script entry plus its ω read,
     so the arrays are sized once, from the script. *)
  type track = {
    mutable labels : (P.update, P.query, P.output) Uqadt.operation array;
        (* allocated by the first [record], which supplies the filler *)
    starts : float array;
    finishes : float array;
    mutable len : int;
    mutable omega : int;  (* index of the ω read, or -1 *)
  }

  let track ~capacity =
    {
      labels = [||];
      starts = Array.create_float capacity;
      finishes = Array.create_float capacity;
      len = 0;
      omega = -1;
    }

  (* Appends one operation and returns its index in the process. *)
  let record tr label ~start ~finish =
    let i = tr.len in
    if i = 0 then tr.labels <- Array.make (Array.length tr.starts) label;
    tr.labels.(i) <- label;
    tr.starts.(i) <- start;
    tr.finishes.(i) <- finish;
    tr.len <- i + 1;
    i

  (* The tracks' spans concatenated in event-id order (process-major,
     as {!History.init} numbers events). *)
  let concat_times tracks field =
    let total = Array.fold_left (fun acc tr -> acc + tr.len) 0 tracks in
    let all = Array.create_float total in
    let at = ref 0 in
    Array.iter
      (fun tr ->
        Array.blit (field tr) 0 all !at tr.len;
        at := !at + tr.len)
      tracks;
    all

  let run config ~workload =
    let n = config.n in
    if Array.length workload <> n then
      invalid_arg "Runner.run: workload width must match config.n";
    let engine = Engine.create () in
    let metrics = Metrics.create () in
    let trace = if config.trace then Some (Trace.create ()) else None in
    let root_rng = Prng.create config.seed in
    let net_rng = Prng.split root_rng in
    let think_rngs = Array.init n (fun _ -> Prng.split root_rng) in
    let replicas = Array.make n None in
    let record_delivery =
      Option.map
        (fun tr ~sent ~received ~src ~dst msg ->
          Trace.record_delivery tr ~sent ~received ~src ~dst (P.describe_message msg))
        trace
    in
    (* Filled in below, once the probe has everything it closes over;
       the network's deliver callback fires only when the engine runs,
       well after assignment. *)
    let probe_after_delivery = ref (fun () -> ()) in
    let network =
      Network.create ~engine ~rng:net_rng ~metrics ~n ~fifo:config.fifo
        ~partitions:config.partitions ~envelope:config.envelope ?record_delivery
        ?obs:config.obs ~delay:config.delay ~wire_size:P.message_wire_size
        ~deliver:(fun ~dst ~src msg ->
          (match replicas.(dst) with
          | Some r -> P.receive r ~src msg
          | None -> ());
          !probe_after_delivery ())
        ()
    in
    let crashed = Array.make n false in
    (* Churn bookkeeping. A pid whose first churn event is a [Join]
       starts the run absent: no replica, script parked until it joins.
       [offline] mirrors the network's detach state for the driver and
       probe; [ever_offline] marks replicas that may have missed frames
       and therefore need the quiescence catch-up pass. *)
    let offline = Array.make n false in
    let ever_offline = Array.make n false in
    let parked : action list option array = Array.make n None in
    let churn_sorted =
      List.stable_sort
        (fun (a : Network.churn_event) b -> Float.compare a.time b.time)
        config.churn
    in
    let starts_absent =
      Array.init n (fun pid ->
          match
            List.find_opt
              (fun (ce : Network.churn_event) -> ce.Network.pid = pid)
              churn_sorted
          with
          | Some { action = Network.Join; _ } -> true
          | _ -> false)
    in
    Array.iteri
      (fun pid absent ->
        if absent then begin
          offline.(pid) <- true;
          ever_offline.(pid) <- true;
          Network.detach network pid
        end)
      starts_absent;
    (* Journal plumbing: event indices are journal positions when a
       journal is attached (so monitor violations cite replayable
       indices) and a plain operation counter otherwise. *)
    let journal = Option.bind config.obs (fun o -> o.Obs.journal) in
    let observing = journal <> None || config.monitor <> None in
    let mon_seq = ref 0 in
    let next_index () =
      match journal with
      | Some j -> Obs.Journal.length j
      | None ->
        let i = !mon_seq in
        incr mon_seq;
        i
    in
    let jrecord f =
      match journal with Some j -> Obs.Journal.record j (f ()) | None -> ()
    in
    List.iter
      (fun (p : Network.partition) ->
        jrecord (fun () ->
            Obs.Journal.Partition
              {
                from_time = p.Network.from_time;
                to_time = p.Network.to_time;
                group = p.Network.group;
              }))
      config.partitions;
    let pid_labels pid = [ ("pid", string_of_int pid) ] in
    let runner_obs =
      Option.map
        (fun o ->
          let per name =
            Array.init n (fun pid ->
                Obs.Registry.counter o.Obs.registry ~labels:(pid_labels pid)
                  name)
          in
          {
            upd = per "updates_invoked";
            qry = per "queries_invoked";
            comp = per "ops_completed";
            rep = per "replay_steps";
            lat =
              Array.init n (fun pid ->
                  Obs.Registry.hist o.Obs.registry ~labels:(pid_labels pid)
                    "op_latency");
          })
        config.obs
    in
    let robs f = Option.iter f runner_obs in
    (* Convergence-lag probe: piggybacks on existing engine activations
       (deliveries and invocations) rather than scheduling its own
       events, so enabling it cannot perturb the simulation schedule;
       [interval] only rate-limits the sampling in simulated time. *)
    let probe =
      match (config.obs, config.probe_interval) with
      | Some o, Some interval ->
        let fingerprint =
          Option.value config.fingerprint ~default:default_fingerprint
        in
        let last = ref Float.neg_infinity in
        Some
          (fun ~force () ->
            let now = Engine.now engine in
            if force || now -. !last >= interval then begin
              last := now;
              let fps = ref [] in
              for pid = n - 1 downto 0 do
                if not crashed.(pid) && not offline.(pid) then
                  match replicas.(pid) with
                  | Some r -> fps := fingerprint r :: !fps
                  | None -> ()
              done;
              let distinct =
                List.length (List.sort_uniq String.compare !fps)
              in
              Obs.record_divergence o ~time:now ~distinct;
              jrecord (fun () -> Obs.Journal.Probe { time = now; distinct });
              Option.iter
                (fun m -> Mon.on_probe m ~time:now ~distinct)
                config.monitor
            end)
      | _ -> None
    in
    (* Time-series sampler: same piggyback discipline as the probe —
       it rides existing activations and schedules nothing, so enabling
       it cannot perturb the schedule. The runner contributes the
       resource series the sampler cannot see from the registry alone:
       per-replica log length, checkpoint counts (via the profile), and
       the engine's pending-event queue depth as the mailbox proxy. *)
    (match config.sampler with
    | None -> ()
    | Some s ->
      Obs.Series.add_probe s (fun () ->
          let readings = ref [] in
          readings :=
            ("queue_depth", [], float_of_int (Engine.pending engine))
            :: !readings;
          for pid = n - 1 downto 0 do
            (match replicas.(pid) with
            | Some r when (not crashed.(pid)) && not offline.(pid) ->
              readings :=
                ("log_len", pid_labels pid, float_of_int (P.log_length r))
                :: !readings
            | _ -> ());
            Option.iter
              (fun o ->
                let rep = Obs.replica o pid in
                let taken = rep.Obs.profile.Obs.Profile.checkpoints_taken in
                if taken > 0 then
                  readings :=
                    ("checkpoints", pid_labels pid, float_of_int taken)
                    :: !readings)
              config.obs
          done;
          !readings));
    let maybe_sample () =
      match config.sampler with
      | None -> ()
      | Some s -> Obs.Series.maybe_tick s ~now:(Engine.now engine)
    in
    let maybe_probe () =
      (match probe with Some p -> p ~force:false () | None -> ());
      maybe_sample ()
    in
    probe_after_delivery := maybe_probe;
    (* Per-process recorded steps and spans; room for the whole script
       plus the ω read. Latencies in completion order, unboxed. *)
    let tracks =
      Array.map (fun script -> track ~capacity:(List.length script + 1)) workload
    in
    let latencies =
      Array.create_float (Array.fold_left (fun acc s -> acc + List.length s) 0 workload)
    in
    let completed = ref 0 in
    (* Per-process broadcast buffers for window batching: the first
       broadcast of a window schedules a flush [batch_window] later;
       everything buffered until then leaves as one frame per
       destination. Flushes are engine events, so they drain inside the
       main [Engine.run] and respect crashes (a crashed source's buffer
       is dropped by the network like any of its sends). *)
    (* Buffered messages carry the span that was ambient when the
       protocol handed them over — by flush time the batching window has
       long outlived it. *)
    let batch_bufs = Array.init n (fun _ -> Queue.create ()) in
    let flush_batch pid =
      let q = batch_bufs.(pid) in
      if not (Queue.is_empty q) then begin
        let msgs = List.of_seq (Queue.to_seq q) in
        Queue.clear q;
        Network.broadcast_stamped_batch network ~src:pid msgs
      end
    in
    let make_replica pid =
      let ctx =
        {
          Protocol.pid;
          n;
          now = (fun () -> Engine.now engine);
          send = (fun ~dst msg -> Network.send network ~src:pid ~dst msg);
          broadcast =
            (match config.batch_window with
            | None -> fun msg -> Network.broadcast network ~src:pid msg
            | Some window ->
              fun msg ->
                if Queue.is_empty batch_bufs.(pid) then
                  Engine.schedule engine ~delay:window (fun () -> flush_batch pid);
                Queue.add (msg, Network.ambient network) batch_bufs.(pid));
          broadcast_batch =
            (fun msgs -> Network.broadcast_batch network ~src:pid msgs);
          set_timer = (fun ~delay thunk -> Engine.schedule engine ~delay thunk);
          count_replay =
            (fun k ->
              metrics.Metrics.replay_steps <- metrics.Metrics.replay_steps + k;
              robs (fun ro -> Obs.Registry.inc ~by:k ro.rep.(pid)));
          obs = Option.map (fun o -> Obs.replica o pid) config.obs;
        }
      in
      P.create ctx
    in
    for pid = 0 to n - 1 do
      if not starts_absent.(pid) then replicas.(pid) <- Some (make_replica pid)
    done;
    let replica pid =
      match replicas.(pid) with
      | Some r -> r
      | None -> invalid_arg "Runner: replica not initialised"
    in
    (* Sequential script driver for one process. An offline process
       parks its remaining script instead of issuing: its client pauses
       with it and resumes (with a fresh think gap) when it rejoins.
       The per-operation steps are named functions of [run] rather than
       closures built per invocation: an operation allocates only its
       completion callback. *)
    let rec issue pid script =
      if crashed.(pid) then ()
      else if offline.(pid) then parked.(pid) <- Some script
      else begin
        match script with
        | [] -> ()
        | Protocol.Invoke_update u :: rest ->
          invoke_update pid u ~started:(Engine.now engine) rest
        | Protocol.Invoke_query q :: rest ->
          invoke_query pid q ~started:(Engine.now engine) rest
      end
    (* An operation returned: account for it and schedule the process's
       next invocation a think-time later. *)
    and complete pid ~started rest =
      if not crashed.(pid) then begin
        metrics.Metrics.ops_completed <- metrics.Metrics.ops_completed + 1;
        let elapsed = Engine.now engine -. started in
        latencies.(!completed) <- elapsed;
        incr completed;
        (match runner_obs with
        | None -> ()
        | Some ro ->
          Obs.Registry.inc ro.comp.(pid);
          Obs.Registry.observe ro.lat.(pid) elapsed);
        (match config.sampler with
        | None -> ()
        | Some s ->
          Obs.Series.observe_latency s ~key:pid elapsed;
          Obs.Series.maybe_tick s ~now:(Engine.now engine));
        let gap = Network.draw_delay think_rngs.(pid) config.think in
        Engine.schedule engine ~delay:gap (fun () -> issue pid rest)
      end
    and invoke_update pid u ~started rest =
      metrics.Metrics.updates_invoked <- metrics.Metrics.updates_invoked + 1;
      (match runner_obs with None -> () | Some ro -> Obs.Registry.inc ro.upd.(pid));
      let tk = tracks.(pid) in
      let i = record tk (Uqadt.Update u) ~start:started ~finish:Float.infinity in
      (match trace with
      | None -> ()
      | Some tr ->
        Trace.record_op tr ~time:started ~pid (Format.asprintf "%a" P.pp_update u));
      let on_done () =
        tk.finishes.(i) <- Engine.now engine;
        complete pid ~started rest
      in
      (* Journal the invocation (and feed the monitor) before the
         protocol runs, so the frames its broadcast produces land after
         their cause in the journal. *)
      match config.obs with
      | None ->
        if observing then observe_update pid u ~started None;
        P.update (replica pid) u ~on_done
      | Some o ->
        (* Open the update's span and leave it ambient while the
           protocol processes the invocation, so broadcasts it emits
           are stamped; the origin applies its own update synchronously
           (Section VII.B), recorded on return. *)
        let span =
          Obs.Span.fresh o.Obs.spans ~pid ~time:started
            ~label:(Format.asprintf "%a" P.pp_update u)
        in
        if observing then observe_update pid u ~started (Some span);
        Obs.Span.set_active o.Obs.spans (Some span);
        P.update (replica pid) u ~on_done;
        Obs.Span.record_apply o.Obs.spans ~span:(Some span) ~pid
          ~time:(Engine.now engine);
        Obs.Span.set_active o.Obs.spans None;
        maybe_probe ()
    and observe_update pid u ~started span =
      let index = next_index () in
      jrecord (fun () ->
          Obs.Journal.Update
            { pid; time = started; span; label = Format.asprintf "%a" P.pp_update u });
      Option.iter (fun m -> Mon.on_update m ~pid ~index ~span u) config.monitor
    and invoke_query pid q ~started rest =
      metrics.Metrics.queries_invoked <- metrics.Metrics.queries_invoked + 1;
      (match runner_obs with None -> () | Some ro -> Obs.Registry.inc ro.qry.(pid));
      (* Queries get a local span (they never propagate, so it is
         excluded from visibility metrics) purely so the journal and
         monitor can cite a causal id for the read. *)
      let qspan =
        Option.map
          (fun o ->
            Obs.Span.fresh ~local:true o.Obs.spans ~pid ~time:started
              ~label:(Format.asprintf "%a" P.pp_query q))
          config.obs
      in
      let on_result output =
        if not crashed.(pid) then begin
          let now = Engine.now engine in
          ignore (record tracks.(pid) (Uqadt.Query (q, output)) ~start:started ~finish:now : int);
          (match trace with
          | None -> ()
          | Some tr ->
            Trace.record_op tr ~time:now ~pid
              (Format.asprintf "%a/%a" P.pp_query q P.pp_output output));
          if observing then begin
            let index = next_index () in
            jrecord (fun () ->
                Obs.Journal.Query
                  {
                    pid;
                    invoked = started;
                    completed = now;
                    span = qspan;
                    label = Format.asprintf "%a" P.pp_query q;
                    output = Format.asprintf "%a" P.pp_output output;
                    omega = false;
                  });
            Option.iter
              (fun m -> Mon.on_query m ~pid ~index ~span:qspan ~omega:false q output)
              config.monitor
          end;
          complete pid ~started rest
        end
      in
      match config.obs with
      | None -> P.query (replica pid) q ~on_result
      | Some o ->
        Obs.Span.set_active o.Obs.spans qspan;
        P.query (replica pid) q ~on_result;
        Obs.Span.set_active o.Obs.spans None
    in
    Array.iteri
      (fun pid script ->
        let gap = Network.draw_delay think_rngs.(pid) config.think in
        Engine.schedule engine ~delay:gap (fun () -> issue pid script))
      workload;
    List.iter
      (fun (time, pid) ->
        Engine.schedule_at engine ~time (fun () ->
            crashed.(pid) <- true;
            Option.iter (fun tr -> Trace.record_crash tr ~time ~pid) trace;
            jrecord (fun () -> Obs.Journal.Crash { pid; time });
            Network.crash network pid))
      config.crashes;
    (* Catch-up donor for an attaching replica: the first present peer
       not separated from it by a partition at [at]. *)
    let find_donor pid ~at =
      let rec seek d =
        if d >= n then None
        else if
          d <> pid && (not crashed.(d)) && (not offline.(d))
          && replicas.(d) <> None
          && not (Network.separated_at network ~src:d ~dst:pid ~at)
        then Some d
        else seek (d + 1)
      in
      seek 0
    in
    let apply_churn (ce : Network.churn_event) =
      let pid = ce.Network.pid in
      let time = ce.Network.time in
      if not crashed.(pid) then
        match ce.Network.action with
        | Network.Leave ->
          if not offline.(pid) then begin
            offline.(pid) <- true;
            ever_offline.(pid) <- true;
            Network.detach network pid;
            jrecord (fun () -> Obs.Journal.Leave { pid; time })
          end
        | Network.Join | Network.Rejoin ->
          if offline.(pid) then begin
            let rejoin = replicas.(pid) <> None in
            if not rejoin then replicas.(pid) <- Some (make_replica pid);
            offline.(pid) <- false;
            Network.attach network pid;
            let r =
              match replicas.(pid) with Some r -> r | None -> assert false
            in
            (* Repair the gap from a reachable peer's snapshot; when no
               peer is reachable (all crashed, offline or partitioned
               away) the joiner starts from whatever it has and the
               quiescence catch-up pass finishes the job. *)
            let bytes =
              match find_donor pid ~at:time with
              | None -> 0
              | Some d -> (
                let donor =
                  match replicas.(d) with Some r -> r | None -> assert false
                in
                match P.snapshot donor with
                | None -> 0
                | Some s ->
                  if P.absorb r s then begin
                    metrics.Metrics.snapshots_absorbed <-
                      metrics.Metrics.snapshots_absorbed + 1;
                    metrics.Metrics.catchup_bytes <-
                      metrics.Metrics.catchup_bytes + String.length s;
                    String.length s
                  end
                  else 0)
            in
            jrecord (fun () -> Obs.Journal.Join { pid; time; rejoin; bytes });
            match parked.(pid) with
            | None -> ()
            | Some script ->
              parked.(pid) <- None;
              let gap = Network.draw_delay think_rngs.(pid) config.think in
              Engine.schedule engine ~delay:gap (fun () -> issue pid script)
          end
    in
    List.iter
      (fun (ce : Network.churn_event) ->
        Engine.schedule_at engine ~time:ce.Network.time (fun () ->
            apply_churn ce))
      churn_sorted;
    Engine.run ~until:config.deadline engine;
    (* Churn-aware quiescence: replicas that spent time detached (and
       peers that missed their frames to them) may still lag — dropped
       frames are never retransmitted by Algorithm 1. Exchange snapshots
       among present replicas to a fixpoint; protocols without a
       snapshot codec fall through unchanged and must converge through
       the message flow alone. Inert when the run had no churn. *)
    if Array.exists Fun.id ever_offline then begin
      let present pid =
        (not crashed.(pid)) && (not offline.(pid)) && replicas.(pid) <> None
      in
      let changed = ref true in
      let rounds = ref 0 in
      while !changed && !rounds <= n do
        changed := false;
        incr rounds;
        for pid = 0 to n - 1 do
          if present pid then
            for d = 0 to n - 1 do
              if d <> pid && present d then
                match replicas.(pid), replicas.(d) with
                | Some r, Some donor -> (
                  match P.snapshot donor with
                  | None -> ()
                  | Some s ->
                    let before = P.log_length r in
                    if P.absorb r s && P.log_length r <> before then
                      changed := true)
                | _ -> ()
            done
        done
      done
    end;
    (* One forced probe at quiescence: this is the sample that should
       show the divergence gauge back at 1 once partitions healed. *)
    (match probe with Some p -> p ~force:true () | None -> ());
    (* And one forced sampler tick, so every series carries a point at
       the run's true end even when the cadence last fired earlier. *)
    Option.iter
      (fun s -> Obs.Series.tick s ~now:(Engine.now engine))
      config.sampler;
    (* Quiescence: issue the ω final reads on live processes — crashed
       replicas are gone for good and replicas still detached by churn
       at the end of the run are outside the system (the paper's ω reads
       belong to correct, participating processes). *)
    let present pid =
      (not crashed.(pid)) && (not offline.(pid)) && replicas.(pid) <> None
    in
    let final_outputs = ref [] in
    (match config.final_read with
    | None -> ()
    | Some q ->
      for pid = 0 to n - 1 do
        if present pid then begin
          metrics.Metrics.queries_invoked <- metrics.Metrics.queries_invoked + 1;
          robs (fun ro -> Obs.Registry.inc ro.qry.(pid));
          let started = Engine.now engine in
          let qspan =
            Option.map
              (fun o ->
                Obs.Span.fresh ~local:true o.Obs.spans ~pid ~time:started
                  ~label:(Format.asprintf "%aω" P.pp_query q))
              config.obs
          in
          let do_query () =
            P.query (replica pid) q ~on_result:(fun output ->
                let now = Engine.now engine in
                let tk = tracks.(pid) in
                tk.omega <- record tk (Uqadt.Query (q, output)) ~start:now ~finish:now;
                Option.iter
                  (fun tr ->
                    Trace.record_op tr ~time:(Engine.now engine) ~pid
                      (Format.asprintf "%a/%aω" P.pp_query q P.pp_output output))
                  trace;
                if observing then begin
                  let index = next_index () in
                  jrecord (fun () ->
                      Obs.Journal.Query
                        {
                          pid;
                          invoked = started;
                          completed = Engine.now engine;
                          span = qspan;
                          label = Format.asprintf "%a" P.pp_query q;
                          output = Format.asprintf "%a" P.pp_output output;
                          omega = true;
                        });
                  Option.iter
                    (fun m ->
                      Mon.on_query m ~pid ~index ~span:qspan ~omega:true q
                        output)
                    config.monitor
                end;
                final_outputs := (pid, output) :: !final_outputs)
          in
          match config.obs with
          | None -> do_query ()
          | Some o ->
            Obs.Span.set_active o.Obs.spans qspan;
            do_query ();
            Obs.Span.set_active o.Obs.spans None
        end
      done;
      Engine.run ~until:config.deadline engine);
    let invoked =
      metrics.Metrics.updates_invoked + metrics.Metrics.queries_invoked
    in
    metrics.Metrics.ops_incomplete <-
      invoked - metrics.Metrics.ops_completed - List.length !final_outputs;
    let final_outputs = List.rev !final_outputs in
    let converged =
      match final_outputs with
      | [] -> true
      | (_, o0) :: rest -> List.for_all (fun (_, o) -> P.equal_output o0 o) rest
    in
    let live = List.filter present (List.init n Fun.id) in
    let certificates =
      List.filter_map
        (fun pid -> Option.map (fun c -> (pid, c)) (P.certificate (replica pid)))
        live
    in
    let certificates_agree =
      match certificates with
      | [] -> true
      | (_, c0) :: rest ->
        List.for_all
          (fun (_, c) ->
            List.length c = List.length c0
            && List.for_all2
                 (fun (p, u) (p', u') -> p = p' && P.equal_update u u')
                 c c0)
          rest
    in
    let intervals =
      {
        Check_lin.starts = concat_times tracks (fun tr -> tr.starts);
        finishes = concat_times tracks (fun tr -> tr.finishes);
      }
    in
    Option.iter
      (fun o ->
        Obs.finalize o ~live;
        Metrics.to_registry metrics o.Obs.registry)
      config.obs;
    let history =
      History.init n
        ~length:(fun pid -> tracks.(pid).len)
        ~label:(fun pid i -> tracks.(pid).labels.(i))
        ~omega:(fun pid i -> i = tracks.(pid).omega)
    in
    Option.iter
      (fun j ->
        Obs.Journal.seal j
          ~fingerprint:
            (History.fingerprint P.pp_update P.pp_query P.pp_output history))
      journal;
    {
      history;
      metrics;
      op_latencies = Array.sub latencies 0 !completed;
      final_outputs;
      converged;
      certificates;
      certificates_agree;
      log_lengths = List.map (fun pid -> (pid, P.log_length (replica pid))) live;
      metadata_bytes = List.map (fun pid -> (pid, P.metadata_bytes (replica pid))) live;
      sim_duration = Engine.now engine;
      trace;
      intervals;
    }
end
