(** Wall-clock throughput runs of the multicore engine
    ({!Parallel_engine}) with the Proposition 4 parallel-vs-sequential
    differential.

    The differential is what makes a nondeterministic wall-clock run
    checkable: whatever delivery order the OS schedule produced, a
    strong-update-consistent run must end with (1) every replica
    holding the same timestamp-sorted log, (2) every ω answer equal to
    the query on the timestamp-order fold of that log's updates, (3) a
    fresh {e sequential}-core replica restored from the log answering
    identically, (4) for commutative specs, a full sequential {!Runner}
    of the same scripts agreeing, and (5) exactly the issued updates in
    the log. With a flight recorder ({!Obs.Recorder}) attached there is
    a sixth clause: (6) the recorded per-replica delivery order,
    re-executed on the sequential core by {!Bench.replay_journal}, must
    reproduce the recorded history fingerprint. {!Bench.ok} is the
    conjunction; CI gates on it. *)

val dummy_ctx : pid:int -> n:int -> 'msg Protocol.ctx
(** A context that drops every message — for replicas used as
    sequential replay oracles. *)

type row = {
  spec : string;
  domains : int;
  ops_per_domain : int;
  total_ops : int;
  updates : int;
  batch : int;  (** sender-side coalescing threshold the cell ran with *)
  flush_window : int;
      (** forced-flush cadence in invocations; 0 = threshold-only *)
  frames : int;  (** mailbox frames actually pushed, summed over domains *)
  wall_s : float;
  ops_per_sec : float;
  p50_us : float;
  p99_us : float;
  mailbox_max_depth : int;
  mailbox_stalls : int;
  ok : bool;  (** the differential verdict, never a throughput bound *)
}
(** One BENCH_throughput.json record. *)

val emit_json : string -> row list -> unit

val series_of_events :
  ?capacity:int ->
  ?interval:float ->
  ?sink:(Obs.Series.point -> unit) ->
  Obs.Recorder.event list ->
  Obs.Series.t
(** Wall-clock time series from a merged recorder stream: per-pid
    cumulative counters ([ops], [updates], [frames_sent],
    [messages_sent], [messages_received], [mailbox_stalls]) snapshotted
    every [interval] recorded-wall-clock seconds (default 10ms), with a
    forced closing sample. [sink] streams every point at full
    resolution (the [--series-out] JSONL writer); the returned store
    holds the decimating rings. Spec-agnostic: only event kinds are
    read. *)

module Bench (A : Uqadt.S) : sig
  module G : sig
    include
      Generic.S
        with type update = A.update
         and type query = A.query
         and type output = A.output
         and type state = A.state

    val same_log : t -> t -> bool
    (** {!Generic.Make.same_log}: clause 1's in-place log comparison. *)
  end
  module E : module type of Parallel_engine.Make (G)
  module Mon : module type of Obs.Monitor.Make (A)

  type recording = {
    events : Obs.Recorder.event list;
        (** the merged [(lamport, pid, seq)]-sorted stream *)
    journal : Obs.Journal.t;
        (** rebuilt from the stream and sealed with the recorded
            history's fingerprint — what [--journal-out] writes and
            [ucsim replay] re-executes *)
    fingerprint : string;
    replay : (string, string) result;
        (** [Ok fp]: {!replay_journal} reproduced the footer
            fingerprint; [Error reason] otherwise *)
    monitor : Mon.t option;  (** when [?monitor] criteria were given *)
  }

  type verdict = {
    run : E.result;
    latency : Stats.summary option;
    logs_agree : bool;
    omega_matches_fold : bool;
    replay_matches_fold : bool;
    runner_matches : bool option;  (** [None] for non-commutative specs *)
    updates_conserved : bool;
    journal_replay : bool option;
        (** clause 6; [None] when no recorder was attached *)
    recording : recording option;
    state_repr : string;  (** rendered timestamp-order fold *)
    stages : (string * float) list;
        (** wall-clock seconds of each stage of [measure], in run order:
            ["engine"], ["log agreement"], ["fold"] (replica 0's list,
            the fold and the ω comparison), ["restore and query"],
            ["sequential clause"] (commutative specs only),
            ["recording"] (with a recorder only) and
            ["latency summary"] *)
  }

  val ok : verdict -> bool

  val uniform_scripts :
    seed:int ->
    domains:int ->
    ops:int ->
    query_ratio:float ->
    (A.update, A.query) Protocol.invocation list array
  (** One {!Prng.fork}ed client stream per domain off [seed]; each
      script mixes [A.random_update] with [A.random_query] at
      [query_ratio]. A pure function of its arguments. *)

  val measure :
    ?mailbox_capacity:int ->
    ?batch_every:int ->
    ?flush_window:int ->
    ?obs:Obs.t ->
    ?recorder:Obs.Recorder.t ->
    ?monitor:Obs.Monitor.criterion list ->
    ?journal_header:(string * Obs.Json.t) list ->
    ?seq_seed:int ->
    domains:int ->
    final_read:A.query ->
    scripts:(A.update, A.query) Protocol.invocation list array ->
    unit ->
    verdict
  (** Run the engine on the scripts with an ω [final_read] everywhere,
      then run the full differential described above. With [?recorder]
      the run is also recorded: the merged stream becomes a sealed
      journal (header fields from [?journal_header]), the replay bridge
      verdict lands in [journal_replay] (clause 6), and [?monitor]
      criteria are checked online over the same stream. *)

  val history_of_events :
    scripts:(A.update, A.query) Protocol.invocation list array ->
    final_read:A.query ->
    query_outputs:A.output list array ->
    omega_outputs:(int * A.output) list ->
    Obs.Recorder.event list ->
    (A.update, A.query, A.output) History.t
  (** Resolve a merged recorder stream against the (regenerated)
      scripts and the run's recorded outputs into a {!History}: one
      line per domain in program order, ω read last. The recorder
      stores no payloads — the scripts being pure functions of the
      seed is what makes this total.
      @raise Failure when the stream and the scripts disagree (a
      corrupt or mismatched recording). *)

  val journal_of_events :
    ?header:(string * Obs.Json.t) list ->
    scripts:(A.update, A.query) Protocol.invocation list array ->
    final_read:A.query ->
    query_outputs:A.output list array ->
    omega_outputs:(int * A.output) list ->
    Obs.Recorder.event list ->
    Obs.Journal.t
  (** The merged stream as a standard journal, in merge order:
      invocations become [Update]/[Query] events, sends become [Frame]s
      (arrival patched from the matching deliver via per-(src,dst)
      FIFO), delivers and stalls keep their kind. Sealed with the
      {!history_of_events} fingerprint. @raise Failure as above. *)

  val replay_journal :
    scripts:(A.update, A.query) Protocol.invocation list array ->
    final_read:A.query ->
    Obs.Journal.t ->
    (string, string) result
  (** Re-execute a recorded journal on the {e sequential} core: one
      replica per domain whose sends are captured into per-(src,dst)
      FIFO queues, each [Deliver] event popping exactly the messages
      the recorded frame carried. Reproducing every replica's event
      order reproduces its timestamp evolution, hence its outputs
      (Proposition 4); [Ok fp] iff the replayed history fingerprint
      equals the journal footer. *)

  val feed_monitor :
    criteria:Obs.Monitor.criterion list ->
    scripts:(A.update, A.query) Protocol.invocation list array ->
    final_read:A.query ->
    query_outputs:A.output list array ->
    omega_outputs:(int * A.output) list ->
    Obs.Recorder.event list ->
    Mon.t
  (** Feed the merged stream through the online monitors; violation
      indices are journal event indices (the walk is the same one
      {!journal_of_events} uses). *)

  val row : ?batch:int -> ?flush_window:int -> ops_per_domain:int -> verdict -> row
  (** [batch]/[flush_window] (defaults 1/0) annotate the row with the
      knobs the cell ran under — [measure] does not retain them. *)
end

type shard_row = {
  shard_spec : string;
  shards : int;
  shard_domains : int;
  keys : int;
  skew : float;
  fanout : int;
  shard_total_ops : int;
  keyed_updates : int;  (** keyed sub-updates issued (Σ batch widths) *)
  shard_wall_s : float;
  shard_ops_per_sec : float;
  shard_log_max : int;  (** longest per-shard log — skew made visible *)
  shard_log_min : int;
  shard_ok : bool;  (** the shard-aware differential verdict *)
}
(** One BENCH_shard.json record. *)

val emit_shard_json : string -> shard_row list -> unit

(** The Proposition 4 differential, shard-aware: the {!Space} runs one
    Algorithm 1 core per shard, so after a parallel run quiesces every
    replica must hold, {e for every shard}, the identical
    timestamp-sorted inner log; every ω sweep must equal the keyed fold
    of the union of those logs; the whole-space snapshot/absorb path
    (churn catch-up, shard migration) must restore a fresh replica to
    the same answer; and the union must hold exactly the keyed
    sub-updates the clients issued. *)
module Sharded
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) : sig
  module S : module type of Space.Make (A) (C)
  module E : module type of Parallel_engine.Make (S)

  type verdict = {
    run : E.result;
    latency : Stats.summary option;
    shards : int;
    keyed_total : int;
    shard_logs_agree : bool;
    omega_matches_fold : bool;
    snapshot_matches_fold : bool;
    updates_conserved : bool;
    shard_lengths : (int * int) list;  (** replica 0, by shard id *)
    state_repr : string;  (** rendered keyed fold *)
  }

  val ok : verdict -> bool

  val zipf_scripts :
    seed:int ->
    domains:int ->
    ops:int ->
    keys:int ->
    skew:float ->
    fanout:int ->
    query_ratio:float ->
    (S.update, S.query) Protocol.invocation list array
  (** One {!Prng.fork}ed stream per domain: multi-key update batches
      (width uniform in [1..fanout]) over a Zipf-skewed key space, plus
      keyed reads at [query_ratio]. Key 0 is the hottest. *)

  val measure :
    ?mailbox_capacity:int ->
    ?batch_every:int ->
    ?flush_window:int ->
    ?obs:Obs.t ->
    ?vnodes:int ->
    shards:int ->
    domains:int ->
    scripts:(S.update, S.query) Protocol.invocation list array ->
    unit ->
    verdict
  (** Build a static [shards]-shard map (no rebalancing policy — the
      ring never changes during the parallel run), run the engine with
      an ω sweep everywhere, then run the shard-aware differential. *)

  val row : keys:int -> skew:float -> fanout:int -> verdict -> shard_row
end

val set_zipf_scripts :
  seed:int ->
  domains:int ->
  ops:int ->
  skew:float ->
  delete_ratio:float ->
  (Set_spec.update, Set_spec.query) Protocol.invocation list array
(** Zipf-skewed or-set insert/delete mix (the C-series conflict
    workload shape) cut per domain: hot keys collide across domains, so
    convergence is exercised under real contention. *)
