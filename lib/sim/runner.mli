(** Drives one protocol over one workload through the simulator and
    extracts everything the experiments need: the distributed history
    (for the consistency checkers), metric counters, per-operation
    latencies, the final converged (or not) reads, and the replicas'
    linearization certificates.

    Each simulated process is sequential: it issues its next operation a
    think-time after the previous one completed, crashes at its
    scheduled time if any, and — once every live process has exhausted
    its script and the network has quiesced — issues one final read,
    recorded as an ω query, so that the extracted history can be judged
    for EC/UC exactly as the paper's figures are. *)

module Make (P : Protocol.PROTOCOL) : sig
  module Mon : module type of Obs.Monitor.Make (P)
  (** Online consistency monitor over this protocol's spec; create one
      with [Mon.create] and pass it as [config.monitor] to have the
      runner feed it every invocation as it completes. *)

  type action = (P.update, P.query) Protocol.invocation

  type config = {
    seed : int;
    n : int;
    delay : Network.delay_model;
    fifo : bool;
    partitions : Network.partition list;
    crashes : (float * int) list;  (** (time, pid) *)
    churn : Network.churn_event list;
        (** dynamic membership schedule. A pid whose {e first} event is
            [Join] starts the run absent (no replica, its script parked
            until it joins); [Leave] detaches a replica — frames to and
            from it drop, its script parks — and [Rejoin]/[Join] brings
            it back, catching up from a present peer's {!Persist}
            snapshot when the protocol supports one. Replicas still
            detached at the end of the run take no ω read and are
            excluded from the convergence verdict. Quiescence is
            churn-aware: after the engine drains, present replicas
            exchange snapshots to a fixpoint to repair frames lost to
            detached windows. *)
    think : Network.delay_model;  (** gap between consecutive local ops *)
    final_read : P.query option;
    deadline : float;  (** hard stop for the whole simulation *)
    trace : bool;  (** record an execution trace (see {!Trace}) *)
    batch_window : float option;
        (** when set, a process's broadcasts are buffered and flushed as
            one {!Network.broadcast_batch} frame per destination this
            many time units after the window opens — back-to-back
            updates amortise the per-frame envelope. [None] (the
            default) sends every broadcast immediately, exactly as the
            seed runner did. *)
    envelope : int;
        (** per-frame wire overhead passed to {!Network.create};
            default [0], which keeps byte accounting identical to the
            seed. *)
    obs : Obs.t option;
        (** telemetry bundle. [None] (the default) disables all
            instrumentation and keeps the run bit-identical to the
            seed: same history, same metrics, same wire bytes. *)
    probe_interval : float option;
        (** minimum simulated time between convergence probes. Probes
            piggyback on deliveries and invocations — they schedule no
            engine events — and sample every live replica's state
            fingerprint, recording the number of distinct values as the
            divergence series (plus one forced sample at quiescence).
            Requires [obs]. *)
    fingerprint : (P.t -> string) option;
        (** replica state fingerprint for the probe; defaults to the
            certificate rendered as text (log length if the protocol
            keeps no certificate). *)
    monitor : Mon.t option;
        (** online consistency monitor, fed every update invocation and
            completed query (with its journal event index and span id)
            as the run progresses. [None] by default. *)
    sampler : Obs.Series.sampler option;
        (** streaming time-series sampler for soak runs. Like the
            probe, it piggybacks on deliveries and operation
            completions — it schedules no engine events — taking a
            sample whenever its simulated-time cadence says one is due,
            plus one forced tick at quiescence. The runner feeds it
            per-replica [log_len{pid}] and [checkpoints{pid}] (profile)
            gauges, the engine [queue_depth], and every completed
            operation's latency (keyed by pid) for the sliding-window
            [latency_p50]/[latency_p99] series. [None] (the default)
            samples nothing and keeps the run bit-identical to the
            seed. *)
  }

  val default_config : n:int -> seed:int -> config
  (** Uniform delays in [1, 10], think times exponential(5), no faults,
      final read for none (set it per ADT), deadline 1e7, no batching,
      zero envelope, no telemetry. *)

  type result = {
    history : (P.update, P.query, P.output) History.t;
        (** built with {!History.init} from the per-process label
            arrays the run records into (an update when invoked, a query
            when it answers, the ω read last), sharing those labels. *)
    metrics : Metrics.t;
    op_latencies : float array;
        (** unboxed: one simulated latency per completed non-ω
            operation, in completion order, so its length is
            [metrics.ops_completed]. *)
    final_outputs : (int * P.output) list;  (** completed final reads *)
    converged : bool;  (** all completed final reads are equal *)
    certificates : (int * (int * P.update) list) list;
    certificates_agree : bool;
    log_lengths : (int * int) list;
    metadata_bytes : (int * int) list;
    sim_duration : float;
    trace : Trace.t option;  (** present iff [config.trace] *)
    intervals : Check_lin.intervals;
        (** per history event (indexed by event id): invocation and
            response times, as two unboxed arrays. An update that never
            completed (a stalled quorum operation) has an infinite
            response time. Feed these to {!Check_lin} to decide
            linearizability of the run. *)
  }

  val run : config -> workload:action list array -> result
  (** [workload.(p)] is process p's script. Raises [Invalid_argument] if
      the workload width differs from [config.n].

      When [config.obs] carries a {!Obs.Journal}, the run records every
      invocation, wire frame, delivery, drop, crash, partition window,
      and probe sample into it in simulated-time order, and seals it
      with the extracted history's {!History.fingerprint}. Journaling
      only observes — the schedule, history, metrics, and wire bytes
      are bit-identical with and without it. *)
end
