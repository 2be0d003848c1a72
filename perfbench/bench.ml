(* The repository benchmark: one workload per invocation, measured for
   a fixed wall budget as repeated trials, each gated by the library's
   own correctness oracles, reported as medians over the trials.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs the workload untraced and reports the end-to-end
   metrics. --trace 1 runs it through the timing shim ([Shim]) and
   reports the per-layer metrics, a per-domain reconciliation of the
   layer self times against domain wall time, and the tracing overhead
   against an untraced run of the same inputs. Human-readable lines come
   first; the last line of standard output is one JSON object. The exit
   code is non-zero when any trial fails its check. *)

let domains = 2

let now = Shim.now

let secs_since s = float_of_int (now () - s) *. 1e-9

let ms ns = float_of_int ns *. 1e-6

(* ------------------------------------------------------------------ *)
(* Metric table: name, unit. The end-to-end set is what --trace 0
   prints, the per-layer set what --trace 1 prints; BENCHMARK.json
   lists the same names. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("update_p50_us", "us");
    ("update_p99_us", "us");
    ("check_s", "s");
    ("retained_mb", "MB");
  ]

let per_layer =
  [
    ("parallel_engine.send_self_ns_p50", "ns");
    ("parallel_engine.send_self_ns_p99", "ns");
    ("parallel_engine.idle_share", "ratio");
    ("parallel_engine.frames_per_update", "count");
    ("mpsc.stalls_per_kop", "count");
    ("mpsc.max_depth", "count");
    ("generic.update_self_ns_p50", "ns");
    ("generic.update_self_ns_p99", "ns");
    ("generic.receive_ns_per_msg_p50", "ns");
    ("generic.receive_ns_per_msg_p99", "ns");
    ("generic.query_ns_p50", "ns");
    ("generic.query_ns_p99", "ns");
    ("oplog.replay_steps_per_query", "count");
    ("oplog.checkpoint_hit_ratio", "ratio");
    ("oplog.checkpoints_live", "count");
    ("oplog.shift_per_insert", "count");
    ("oplog.checkpoints_dropped_per_insert", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.minor_collections_per_kop", "count");
    ("gc.major_collections", "count");
    ("gc.pause_share", "ratio");
    ("runner.self_s", "s");
    ("network.send_ns_p50", "ns");
    ("network.messages_per_update", "count");
    ("network.bytes_per_update", "bytes");
    ("recorder.events_per_op", "count");
    ("recorder.merge_s", "s");
    ("throughput.journal_build_s", "s");
    ("throughput.journal_replay_s", "s");
    ("throughput.differential_s", "s");
    ("trace.overhead_pct", "%");
    ("reconcile.residual_share", "ratio");
  ]

(* One trial's outcome. Metrics a trial cannot measure (a layer the
   workload does not run, a percentile without ten samples beyond it)
   are absent from [values] and reported as 0 with an n/a note. *)
type trial = {
  values : (string * float) list;
  attempted : int;
  failed : int;
  ok : bool;
}

let pct_value sorted q scale =
  Option.map (fun p -> p.Arith.value *. scale) (Arith.percentile sorted q)

let add name v acc = match v with Some x -> (name, x) :: acc | None -> acc

let ratio a b = if b = 0 then None else Some (float_of_int a /. float_of_int b)

let retained_mb () =
  Stdlib.Gc.full_major ();
  float_of_int (Stdlib.Gc.stat ()).Stdlib.Gc.live_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

let pp_pct label sorted scale unit_ =
  match (Arith.percentile sorted 0.5, Arith.percentile sorted 0.99) with
  | Some p50, Some p99 ->
    Printf.printf "    %s p50 %.3f / p99 %.3f %s (n=%d)\n" label
      (p50.Arith.value *. scale) (p99.Arith.value *. scale) unit_ p50.Arith.samples
  | Some p50, None ->
    Printf.printf "    %s p50 %.3f %s, p99 n/a (n=%d)\n" label
      (p50.Arith.value *. scale) unit_ p50.Arith.samples
  | None, _ ->
    Printf.printf "    %s n/a (n=%d)\n" label (Array.length sorted)

(* ------------------------------------------------------------------ *)
(* Spans to per-layer numbers. *)

type layers = {
  update_self : float list;
  send_self : float list;
  recv_per_msg : float list;
  query_ns : float list;
}

let collect_layers bufs =
  let u = ref [] and s = ref [] and r = ref [] and q = ref [] in
  List.iter
    (fun (b : Shim.buf) ->
      let self = Shim.self_times b in
      for i = 0 to b.len - 1 do
        let dur = b.stop.(i) - b.start.(i) in
        let k = b.kind.(i) in
        if k = Shim.k_update then u := float_of_int self.(i) :: !u
        else if k = Shim.k_send then s := float_of_int self.(i) :: !s
        else if k = Shim.k_query then q := float_of_int dur :: !q
        else if b.count.(i) > 0 then
          r := (float_of_int dur /. float_of_int b.count.(i)) :: !r
      done)
    bufs;
  { update_self = !u; send_self = !s; recv_per_msg = !r; query_ns = !q }

let layer_pcts prefix_kind l acc =
  let pcts name xs acc =
    let a = Arith.sorted_of_list xs in
    acc
    |> add (name ^ "_p50") (pct_value a 0.5 1.0)
    |> add (name ^ "_p99") (pct_value a 0.99 1.0)
  in
  let acc =
    acc
    |> pcts "generic.update_self_ns" l.update_self
    |> pcts "generic.receive_ns_per_msg" l.recv_per_msg
    |> pcts "generic.query_ns" l.query_ns
  in
  match prefix_kind with
  | `Parallel -> pcts "parallel_engine.send_self_ns" l.send_self acc
  | `Network ->
    add "network.send_ns_p50" (pct_value (Arith.sorted_of_list l.send_self) 0.5 1.0) acc

(* The reconciliation view for one domain of the parallel engine:
   domain wall = layer self times (GC pauses inside them included)
   + GC pauses outside spans + quiescence idle + residual. The residual
   is what no layer accounts for: the engine's client loop, mailbox
   drain overhead, and time the domain was scheduled out or contending. *)
type recon = {
  wall : int;
  self_by_kind : int array;
  gc_total : int;
  gc_in_spans : int;
  idle : int;
  residual : int;
  top : int;  (** time covered by top-level spans *)
}

let reconcile (b : Shim.buf) ~script_len ~gc =
  let self = Shim.self_times b in
  let self_by_kind = Array.make 4 0 in
  let tops = ref [] and top = ref 0 in
  let inv = ref 0 and script_end = ref b.created and omega_start = ref 0 in
  let last = ref b.created in
  for i = 0 to b.len - 1 do
    let k = b.kind.(i) in
    self_by_kind.(k) <- self_by_kind.(k) + self.(i);
    if b.stop.(i) > !last then last := b.stop.(i);
    if b.parent.(i) < 0 then begin
      tops := (b.start.(i), b.stop.(i)) :: !tops;
      top := !top + (b.stop.(i) - b.start.(i));
      if k = Shim.k_update || k = Shim.k_query then begin
        incr inv;
        if !inv = script_len then script_end := b.stop.(i);
        if !inv = script_len + 1 then omega_start := b.start.(i)
      end
    end
  done;
  let tops = List.rev !tops in
  let pauses_within lo hi =
    match Gc_events.ring_of gc b.pid with
    | Some ring -> Gc_events.within gc ~ring ~lo ~hi
    | None -> []
  in
  let pauses = pauses_within b.created !last in
  let gc_total = Arith.total_length pauses in
  let gc_in_spans = Arith.overlap tops pauses in
  (* Quiescence: between the last script invocation and the ω read, the
     domain only drains and waits for its peers. *)
  let idle =
    if !omega_start <= !script_end then 0
    else
      let lo = !script_end and hi = !omega_start in
      let clipped = pauses_within lo hi in
      let gc_out = Arith.total_length clipped - Arith.overlap tops clipped in
      hi - lo - Arith.overlap [ (lo, hi) ] tops - gc_out
  in
  let wall = !last - b.created in
  let residual = wall - !top - (gc_total - gc_in_spans) - idle in
  { wall; self_by_kind; gc_total; gc_in_spans; idle; residual; top = !top }

let print_recon ?(residual_is = "scheduling/contention: client loop, drain, preemption") label r =
  let p x = 100.0 *. float_of_int x /. float_of_int (max 1 r.wall) in
  Printf.printf
    "    %s wall %.2f ms = update %.1f%% + send %.1f%% + receive %.1f%% + query \
     %.1f%% [layer self, incl. %.1f%% GC] + GC outside spans %.1f%% + \
     quiescence idle %.1f%% + residual %.1f%% (%s)\n"
    label (ms r.wall) (p r.self_by_kind.(Shim.k_update)) (p r.self_by_kind.(Shim.k_send))
    (p r.self_by_kind.(Shim.k_receive)) (p r.self_by_kind.(Shim.k_query))
    (p r.gc_in_spans) (p (r.gc_total - r.gc_in_spans)) (p r.idle) (p r.residual)
    residual_is

let profile_metrics (profiles : Obs.Profile.t list) acc =
  let sum f = List.fold_left (fun a p -> a + f p) 0 profiles in
  let inserts = sum (fun p -> p.Obs.Profile.inserts) in
  let hits = sum (fun p -> p.Obs.Profile.checkpoint_hits) in
  let misses = sum (fun p -> p.Obs.Profile.checkpoint_misses) in
  acc
  |> add "oplog.checkpoint_hit_ratio" (ratio hits (hits + misses))
  |> add "oplog.shift_per_insert" (ratio (sum (fun p -> p.Obs.Profile.shift_distance)) inserts)
  |> add "oplog.checkpoints_dropped_per_insert"
       (ratio (sum (fun p -> p.Obs.Profile.checkpoints_dropped)) inserts)

let gc_delta (q0 : Stdlib.Gc.stat) (q1 : Stdlib.Gc.stat) ~ops acc =
  let open Stdlib.Gc in
  acc
  |> add "gc.minor_words_per_op"
       (if ops = 0 then None else Some ((q1.minor_words -. q0.minor_words) /. float_of_int ops))
  |> add "gc.minor_collections_per_kop"
       (ratio (1000 * (q1.minor_collections - q0.minor_collections)) ops)
  |> add "gc.major_collections"
       (Some (float_of_int (q1.major_collections - q0.major_collections)))

(* ------------------------------------------------------------------ *)
(* The multicore workloads: [Parallel_engine] over Algorithm 1, two
   domains as closed-loop clients, scripts from
   [Throughput.Bench.uniform_scripts], gated by [Throughput.Bench.ok]. *)

type mc = {
  ops : int;  (** invocations per domain per trial *)
  query_ratio : float;
  recorded : bool;
}

module Mc (A : Uqadt.S) = struct
  module B = Throughput.Bench (A)
  module T = Shim.Make (A)
  module TE = Parallel_engine.Make (T)
  module TR = Runner.Make (T)
  module Run = Uqadt.Run (A)

  let attempted scripts = Array.fold_left (fun a s -> a + List.length s) 0 scripts

  let latency_split scripts (reports : Parallel_engine.domain_report array) =
    let ups = ref [] and qs = ref [] in
    Array.iteri
      (fun pid s ->
        let u, q = Arith.split_latencies s reports.(pid).Parallel_engine.latencies in
        ups := u @ !ups;
        qs := q @ !qs)
      scripts;
    (Arith.sorted_of_list !ups, Arith.sorted_of_list !qs)

  let recorder_for w = if w.recorded then Some (Obs.Recorder.create ~domains ()) else None

  let e2e w ~final_read ~seed =
    Stdlib.Gc.full_major ();
    let s0 = now () in
    let scripts = B.uniform_scripts ~seed ~domains ~ops:w.ops ~query_ratio:w.query_ratio in
    let recorder = recorder_for w in
    let setup = secs_since s0 in
    let m0 = now () in
    let v = B.measure ?recorder ~domains ~final_read ~scripts () in
    let measure_s = secs_since m0 in
    let run = v.B.run in
    let check = measure_s -. run.B.E.wall_seconds in
    let ups, qs = latency_split scripts run.B.E.reports in
    let mb = retained_mb () in
    ignore (Sys.opaque_identity v);
    let ok = B.ok v in
    let attempted = attempted scripts in
    let completed = run.B.E.ops_total - domains in
    let failed = if ok then attempted - completed else attempted in
    let applies = float_of_int (run.B.E.updates_total * domains) /. run.B.E.wall_seconds in
    Printf.printf
      "  trial seed=%d: %.0f ops/s (replica applies %.0f/s), engine %.3f s, check \
       %.3f s, setup %.4f s, retained %.2f MB, differential %s\n"
      seed run.B.E.throughput applies run.B.E.wall_seconds check setup mb
      (if ok then "PASS" else "FAIL");
    pp_pct "update latency" ups 1e6 "us";
    pp_pct "query latency" qs 1e6 "us";
    let values =
      [ ("setup_s", Some setup); ("ops_per_s", Some run.B.E.throughput);
        ("check_s", Some check); ("retained_mb", Some mb);
        ("update_p50_us", pct_value ups 0.5 1e6);
        ("update_p99_us", pct_value ups 0.99 1e6) ]
      |> List.fold_left (fun acc (n, v) -> add n v acc) []
    in
    { values; attempted; failed; ok }

  (* Clauses 1 and 2 of the differential, which a run outside
     [Throughput.Bench.measure] can still reach: every replica holds the
     same log, and every ω answer is the timestamp-order fold. *)
  let logs_and_omega ~final_read logs outputs =
    match logs with
    | [] -> false
    | l0 :: _ ->
      let expected = A.eval (Run.final_state (List.map (fun (_, _, u) -> u) l0)) final_read in
      List.for_all (( = ) l0) logs
      && outputs <> []
      && List.for_all (fun (_, o) -> A.equal_output o expected) outputs

  let traced w ~final_read ~seed ~gc =
    let scripts = B.uniform_scripts ~seed ~domains ~ops:w.ops ~query_ratio:w.query_ratio in
    let attempted = attempted scripts in
    (* A. Untraced engine: GC deltas and the baseline for the tracing
       overhead. *)
    Stdlib.Gc.full_major ();
    let cfg = { (B.E.default_config ~domains) with B.E.final_read = Some final_read; recorder = recorder_for w } in
    let q0 = Stdlib.Gc.quick_stat () in
    let ra = B.E.run cfg ~workload:scripts in
    let q1 = Stdlib.Gc.quick_stat () in
    let ok_a =
      logs_and_omega ~final_read (Array.to_list (Array.map B.G.local_log ra.B.E.replicas)) ra.B.E.outputs
    in
    (* B. The same scripts through the timing shim. *)
    Stdlib.Gc.full_major ();
    T.reset ();
    Gc_events.clear gc;
    let tcfg = { (TE.default_config ~domains) with TE.final_read = Some final_read; recorder = recorder_for w } in
    let rb = TE.run tcfg ~workload:scripts in
    Gc_events.poll gc;
    let replicas = T.replicas () in
    let ok_b =
      logs_and_omega ~final_read (List.map T.local_log replicas) rb.TE.outputs
    in
    let bufs = List.map (fun (r : T.t) -> r.T.buf) replicas in
    let l = collect_layers bufs in
    let recs =
      List.map (fun (b : Shim.buf) -> (b, reconcile b ~script_len:(List.length scripts.(b.pid)) ~gc)) bufs
    in
    List.iter (fun ((b : Shim.buf), r) -> print_recon (Printf.sprintf "domain %d:" b.pid) r) recs;
    if !(gc.Gc_events.lost) > 0 then
      Printf.printf "    warning: %d runtime events lost, GC time is a lower bound\n" !(gc.Gc_events.lost);
    let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 recs in
    let wall = sum (fun r -> r.wall) in
    let reports = rb.TE.reports in
    let rsum f = Array.fold_left (fun a r -> a + f r) 0 reports in
    let ops = rsum (fun r -> r.Parallel_engine.ops) in
    let values =
      []
      |> layer_pcts `Parallel l
      |> add "parallel_engine.idle_share" (ratio (wall - sum (fun r -> r.top)) wall)
      |> add "parallel_engine.frames_per_update"
           (ratio (rsum (fun r -> r.Parallel_engine.frames_sent)) (rsum (fun r -> r.Parallel_engine.updates)))
      |> add "mpsc.stalls_per_kop" (ratio (1000 * rsum (fun r -> r.Parallel_engine.mailbox_stalls)) ops)
      |> add "mpsc.max_depth"
           (Some (float_of_int (Array.fold_left (fun a r -> max a r.Parallel_engine.mailbox_max_depth) 0 reports)))
      |> add "oplog.replay_steps_per_query"
           (ratio (rsum (fun r -> r.Parallel_engine.replay_steps)) (rsum (fun r -> r.Parallel_engine.queries)))
      |> add "oplog.checkpoints_live"
           (ratio (List.fold_left (fun a r -> a + T.checkpoints_live r) 0 replicas) (List.length replicas))
      |> profile_metrics (List.map (fun (r : T.t) -> r.T.profile) replicas)
      |> gc_delta q0 q1 ~ops:ra.B.E.ops_total
      |> add "gc.pause_share" (ratio (sum (fun r -> r.gc_total)) wall)
      |> add "reconcile.residual_share" (ratio (sum (fun r -> r.residual)) wall)
      |> add "trace.overhead_pct"
           (Some (100.0 *. (ra.B.E.throughput -. rb.TE.throughput) /. ra.B.E.throughput))
    in
    Printf.printf "  traced seed=%d: untraced %.0f ops/s, traced %.0f ops/s\n" seed
      ra.B.E.throughput rb.TE.throughput;
    ignore (Sys.opaque_identity (ra, rb));
    (* C. The full differential, timed by stage. *)
    Stdlib.Gc.full_major ();
    let recorder = recorder_for w in
    let m0 = now () in
    let v = B.measure ?recorder ~domains ~final_read ~scripts () in
    let measure_s = secs_since m0 in
    let run = v.B.run in
    let stages, values =
      match recorder with
      | None -> (0.0, values)
      | Some r ->
        let t0 = now () in
        let events = Obs.Recorder.events r in
        let merge = secs_since t0 in
        let t1 = now () in
        let journal =
          B.journal_of_events ~scripts ~final_read ~query_outputs:run.B.E.query_outputs
            ~omega_outputs:run.B.E.outputs events
        in
        let build = secs_since t1 in
        let t2 = now () in
        let replay = B.replay_journal ~scripts ~final_read journal in
        let replay_s = secs_since t2 in
        if Result.is_error replay then print_endline "    journal replay FAILED";
        ( merge +. build +. replay_s,
          values
          |> add "recorder.events_per_op" (ratio (Obs.Recorder.recorded r) run.B.E.ops_total)
          |> add "recorder.merge_s" (Some merge)
          |> add "throughput.journal_build_s" (Some build)
          |> add "throughput.journal_replay_s" (Some replay_s) )
    in
    let values =
      add "throughput.differential_s" (Some (measure_s -. run.B.E.wall_seconds -. stages)) values
    in
    let ok_c = B.ok v in
    ignore (Sys.opaque_identity v);
    (* D. The differential's sequential clause, traced: the same scripts
       through [Runner] on the shim. *)
    T.reset ();
    let sc = { (TR.default_config ~n:domains ~seed:0) with TR.final_read = Some final_read } in
    let d0 = now () in
    let sr = TR.run sc ~workload:scripts in
    let d_wall = now () - d0 in
    let sbufs = List.map (fun (r : T.t) -> r.T.buf) (T.replicas ()) in
    let top = List.fold_left (fun a b -> a + Arith.total_length (Shim.top_level b)) 0 sbufs in
    let sl = collect_layers sbufs in
    let m = sr.TR.metrics in
    let values =
      values
      |> add "runner.self_s" (Some (float_of_int (d_wall - top) *. 1e-9))
      |> add "network.send_ns_p50" (pct_value (Arith.sorted_of_list sl.send_self) 0.5 1.0)
      |> add "network.messages_per_update" (ratio m.Metrics.messages_sent m.Metrics.updates_invoked)
      |> add "network.bytes_per_update" (ratio m.Metrics.bytes_sent m.Metrics.updates_invoked)
    in
    let ok_d = sr.TR.converged && sr.TR.certificates_agree in
    let ok = ok_a && ok_b && ok_c && ok_d in
    Printf.printf "  checks: untraced logs/ω %b, traced logs/ω %b, differential %b, sequential %b\n"
      ok_a ok_b ok_c ok_d;
    { values; attempted; failed = (if ok then 0 else attempted); ok }
end

(* ------------------------------------------------------------------ *)
(* The sequential workload: [Runner] over [Network]/[Engine], eight
   replicas of Algorithm 1 on the register, one healing partition and
   one crash. *)

module Sim = struct
  module Reg = Register_spec
  module B = Throughput.Bench (Reg)
  module S = Shim.Stamped (Reg)
  module R = Runner.Make (S)
  module T = Shim.Make (Reg)
  module TR = Runner.Make (T)
  module Run = Uqadt.Run (Reg)

  let n = 8
  let crashed = n - 1

  (* Clients think exponential(5) between operations, so a script of
     [ops] invocations spans about [5 * ops] time units: the partition
     isolates three replicas over [20%, 45%] of that and the last
     replica crashes at 50%. *)
  let delay = Network.Exponential { mean = 5.0 }

  let faults ~ops =
    let horizon = 5.0 *. float_of_int ops in
    ( [ { Network.from_time = 0.2 *. horizon; to_time = 0.45 *. horizon; group = [ 0; 1; 2 ] } ],
      [ (0.5 *. horizon, crashed) ] )

  let scripts ~ops ~seed = B.uniform_scripts ~seed ~domains:n ~ops ~query_ratio:0.4

  (* Survivors complete every invocation, every survivor holds the same
     certificate, and folding its certificate explains its final read.
     The oracle recomputes agreement rather than trusting [Runner]'s own
     flags, which it also requires. *)
  let check ~ops (history : (Reg.update, Reg.query, Reg.output) History.t) ~converged
      ~certificates_agree ~certificates ~final_outputs =
    let survivors = List.filter (fun p -> p <> crashed) (List.init n Fun.id) in
    let completed p =
      List.length (List.filter (fun e -> not e.History.omega) (History.process_events history p))
    in
    let missing = List.fold_left (fun a p -> a + ops - completed p) 0 survivors in
    let same_update (p, u) (p', u') = p = p' && Reg.equal_update u u' in
    let explained =
      List.map fst certificates = survivors
      &&
      match certificates with
      | [] -> false
      | (_, c0) :: _ ->
        List.for_all
          (fun (pid, c) ->
            List.equal same_update c c0
            &&
            match List.assoc_opt pid final_outputs with
            | Some o -> Reg.equal_output o (Reg.eval (Run.final_state (List.map snd c)) Reg.Read)
            | None -> false)
          certificates
    in
    (missing = 0 && converged && certificates_agree && explained, missing)

  let e2e ~ops ~seed =
    Stdlib.Gc.full_major ();
    let s0 = now () in
    let scripts = scripts ~ops ~seed in
    let cfg =
      let partitions, crashes = faults ~ops in
      { (R.default_config ~n ~seed) with R.delay; partitions; crashes; final_read = Some Reg.Read }
    in
    let setup = secs_since s0 in
    S.reset ();
    let r0 = now () in
    let r = R.run cfg ~workload:scripts in
    let wall = secs_since r0 in
    let c0 = now () in
    let ok, missing =
      check ~ops r.R.history ~converged:r.R.converged ~certificates_agree:r.R.certificates_agree
        ~certificates:r.R.certificates ~final_outputs:r.R.final_outputs
    in
    let check_s = secs_since c0 in
    let m = r.R.metrics in
    let invoked = m.Metrics.updates_invoked + m.Metrics.queries_invoked in
    let completed = invoked - m.Metrics.ops_incomplete in
    let ups = Arith.sorted_of_list (List.concat_map (fun (t : S.t) -> t.S.ups) !S.created) in
    let mb = retained_mb () in
    ignore (Sys.opaque_identity (r, !S.created));
    let ops_per_s = float_of_int completed /. wall in
    let attempted = invoked + missing in
    let failed = if ok then m.Metrics.ops_incomplete + missing else attempted in
    Printf.printf
      "  trial seed=%d: %.0f ops/s (replica applies %.0f/s), runner %.3f s, check \
       %.4f s, setup %.4f s, retained %.2f MB, %d messages, check %s\n"
      seed ops_per_s
      (float_of_int (m.Metrics.updates_invoked + m.Metrics.messages_delivered) /. wall)
      wall check_s setup mb m.Metrics.messages_sent
      (if ok then "PASS" else "FAIL");
    pp_pct "update latency" ups 1e6 "us";
    pp_pct "query latency"
      (Arith.sorted_of_list (List.concat_map (fun (t : S.t) -> t.S.qs) !S.created))
      1e6 "us";
    let values =
      [ ("setup_s", Some setup); ("ops_per_s", Some ops_per_s); ("check_s", Some check_s);
        ("retained_mb", Some mb); ("update_p50_us", pct_value ups 0.5 1e6);
        ("update_p99_us", pct_value ups 0.99 1e6) ]
      |> List.fold_left (fun acc (n, v) -> add n v acc) []
    in
    { values; attempted; failed; ok }

  let traced ~ops ~seed ~gc =
    let scripts = scripts ~ops ~seed in
    (* A. Untraced run: GC deltas and the overhead baseline. *)
    let cfg =
      let partitions, crashes = faults ~ops in
      { (R.default_config ~n ~seed) with R.delay; partitions; crashes; final_read = Some Reg.Read }
    in
    Stdlib.Gc.full_major ();
    S.reset ();
    let q0 = Stdlib.Gc.quick_stat () in
    let a0 = now () in
    let ra = R.run cfg ~workload:scripts in
    let a_wall = secs_since a0 in
    let q1 = Stdlib.Gc.quick_stat () in
    let ma = ra.R.metrics in
    let ops_a = ma.Metrics.updates_invoked + ma.Metrics.queries_invoked in
    (* B. Traced. *)
    let tcfg =
      let partitions, crashes = faults ~ops in
      { (TR.default_config ~n ~seed) with TR.delay; partitions; crashes; final_read = Some Reg.Read }
    in
    Stdlib.Gc.full_major ();
    T.reset ();
    Gc_events.clear gc;
    let b0 = now () in
    let rb = TR.run tcfg ~workload:scripts in
    let b1 = now () in
    Gc_events.poll gc;
    let c0 = now () in
    let ok, missing =
      check ~ops rb.TR.history ~converged:rb.TR.converged
        ~certificates_agree:rb.TR.certificates_agree ~certificates:rb.TR.certificates
        ~final_outputs:rb.TR.final_outputs
    in
    let check_s = secs_since c0 in
    let replicas = T.replicas () in
    let bufs = List.map (fun (r : T.t) -> r.T.buf) replicas in
    let l = collect_layers bufs in
    let self_by_kind = Array.make 4 0 in
    List.iter
      (fun (b : Shim.buf) ->
        let self = Shim.self_times b in
        for i = 0 to b.len - 1 do
          self_by_kind.(b.kind.(i)) <- self_by_kind.(b.kind.(i)) + self.(i)
        done)
      bufs;
    let tops = List.sort compare (List.concat_map Shim.top_level bufs) in
    let top = Arith.total_length tops in
    let wall = b1 - b0 in
    let pauses =
      match Gc_events.ring_of gc 0 with
      | Some ring -> Gc_events.within gc ~ring ~lo:b0 ~hi:b1
      | None -> []
    in
    let gc_total = Arith.total_length pauses in
    let gc_in = Arith.overlap tops pauses in
    let runner_self = wall - top in
    let residual = runner_self - (gc_total - gc_in) in
    let r =
      { wall; self_by_kind; gc_total; gc_in_spans = gc_in; idle = 0; residual; top }
    in
    print_recon ~residual_is:"Runner/Engine event scheduling" "runner (all 8 replicas, one domain):" r;
    let mb = rb.TR.metrics in
    let updates = mb.Metrics.updates_invoked in
    let invoked = updates + mb.Metrics.queries_invoked in
    let b_ops_per_s = float_of_int invoked /. (float_of_int wall *. 1e-9) in
    let a_ops_per_s = float_of_int ops_a /. a_wall in
    Printf.printf "  traced seed=%d: untraced %.0f ops/s, traced %.0f ops/s, check %s\n" seed
      a_ops_per_s b_ops_per_s (if ok then "PASS" else "FAIL");
    let values =
      []
      |> layer_pcts `Network l
      |> add "oplog.replay_steps_per_query" (ratio mb.Metrics.replay_steps mb.Metrics.queries_invoked)
      |> add "oplog.checkpoints_live"
           (ratio (List.fold_left (fun a r -> a + T.checkpoints_live r) 0 replicas) (List.length replicas))
      |> profile_metrics (List.map (fun (r : T.t) -> r.T.profile) replicas)
      |> gc_delta q0 q1 ~ops:ops_a
      |> add "gc.pause_share" (ratio gc_total wall)
      |> add "runner.self_s" (Some (float_of_int runner_self *. 1e-9))
      |> add "network.messages_per_update" (ratio mb.Metrics.messages_sent updates)
      |> add "network.bytes_per_update" (ratio mb.Metrics.bytes_sent updates)
      |> add "throughput.differential_s" (Some check_s)
      |> add "reconcile.residual_share" (ratio residual wall)
      |> add "trace.overhead_pct" (Some (100.0 *. (a_ops_per_s -. b_ops_per_s) /. a_ops_per_s))
    in
    ignore (Sys.opaque_identity (ra, rb));
    let attempted = invoked + missing in
    { values; attempted; failed = (if ok then mb.Metrics.ops_incomplete + missing else attempted); ok }
end

(* ------------------------------------------------------------------ *)

module Mc_counter = Mc (Counter_spec)
module Mc_set = Mc (Set_spec)

type workload = {
  name : string;
  sizes : string;
  e2e : seed:int -> trial;
  traced : seed:int -> gc:Gc_events.t -> trial;
}

let mc_counter_write = { ops = 100_000; query_ratio = 0.0; recorded = false }
let mc_set_readmix = { ops = 15_000; query_ratio = 0.3; recorded = false }
let mc_counter_recorded = { ops = 50_000; query_ratio = 0.0; recorded = true }
let sim_ops = 4_000

let mc_sizes w =
  Printf.sprintf "domains=%d ops_per_domain=%d query_ratio=%.2f recorder=%b mailbox=1024 batch=1"
    domains w.ops w.query_ratio w.recorded

let counter w =
  {
    name = "";
    sizes = mc_sizes w;
    e2e = (fun ~seed -> Mc_counter.e2e w ~final_read:Counter_spec.Value ~seed);
    traced = (fun ~seed ~gc -> Mc_counter.traced w ~final_read:Counter_spec.Value ~seed ~gc);
  }

let workloads =
  [
    { (counter mc_counter_write) with name = "mc-counter-write" };
    {
      name = "mc-set-readmix";
      sizes = mc_sizes mc_set_readmix;
      e2e = (fun ~seed -> Mc_set.e2e mc_set_readmix ~final_read:Set_spec.Read ~seed);
      traced = (fun ~seed ~gc -> Mc_set.traced mc_set_readmix ~final_read:Set_spec.Read ~seed ~gc);
    };
    {
      name = "sim-register-faults";
      sizes =
        Printf.sprintf
          "replicas=%d ops_per_replica=%d query_ratio=0.40 delay=exp(5) partition=[0,1,2]@20-45%% crash=p%d@50%%"
          Sim.n sim_ops Sim.crashed;
      e2e = (fun ~seed -> Sim.e2e ~ops:sim_ops ~seed);
      traced = (fun ~seed ~gc -> Sim.traced ~ops:sim_ops ~seed ~gc);
    };
    { (counter mc_counter_recorded) with name = "mc-counter-recorded" };
  ]

let min_trials = 3

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measurement budget in seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--rev", Arg.Set_string rev, "REV source revision to stamp");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  Printf.printf "# perfbench workload=%s seed=%d seconds=%d trace=%d\n" w.name !seed !seconds !trace;
  Printf.printf "# env nproc=%d ocaml=%s rev=%s\n" (Domain.recommended_domain_count ())
    Sys.ocaml_version !rev;
  Printf.printf "# sizes %s\n%!" w.sizes;
  let gc = if !trace = 1 then Some (Gc_events.start ()) else None in
  let t0 = now () in
  let rec go k acc =
    (* Trial inputs are a pure function of (seed, trial index). *)
    let s = (!seed * 1000) + k in
    let r = match gc with None -> w.e2e ~seed:s | Some gc -> w.traced ~seed:s ~gc in
    flush stdout;
    let acc = r :: acc in
    if k + 1 >= min_trials && secs_since t0 >= float_of_int !seconds then List.rev acc
    else go (k + 1) acc
  in
  let trials = go 0 [] in
  let table = if !trace = 1 then per_layer else end_to_end in
  let medians =
    List.map
      (fun (name, unit_) ->
        match List.filter_map (fun t -> List.assoc_opt name t.values) trials with
        | [] -> (name, None, unit_)
        | xs -> (name, Some (Arith.median xs), unit_))
      table
  in
  let attempted = List.fold_left (fun a t -> a + t.attempted) 0 trials in
  let failed = List.fold_left (fun a t -> a + t.failed) 0 trials in
  let correct = List.for_all (fun t -> t.ok) trials in
  Printf.printf "# %d trials, medians:\n" (List.length trials);
  List.iter
    (fun (name, v, unit_) ->
      match v with
      | Some v -> Printf.printf "%-40s %14.6g %s\n" name v unit_
      | None -> Printf.printf "%-40s %14s %s (not exercised by this workload)\n" name "n/a" unit_)
    medians;
  Printf.printf "%-40s %14.6g ratio (%d of %d invocations)\n" "failed_share"
    (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit_) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_float (Option.value v ~default:0.0))
              unit_)
          medians));
  exit (if correct && failed = 0 then 0 else 1)
