(** Wall-clock throughput runs of the multicore engine
    ({!Parallel_engine}) with the Proposition 4 parallel-vs-sequential
    differential.

    The differential is what makes a nondeterministic wall-clock run
    checkable: whatever delivery order the OS schedule produced, a
    strong-update-consistent run must end with (1) every replica
    holding the same timestamp-sorted log, (2) every ω answer equal to
    the query on the timestamp-order fold of that log's updates, (3) a
    fresh replica restored from replica 0 answering identically, (4)
    for commutative specs, a full sequential {!Runner} of the same
    scripts agreeing, and (5) exactly the issued updates in the log.
    With a flight recorder ({!Obs.Recorder}) attached there is a sixth
    clause: (6) the recorded per-replica delivery order, re-executed on
    the sequential core by [replay_journal], must reproduce the recorded
    history fingerprint.

    The clause list is written once, in {!Make}, over a small log view
    ({!VIEW}). It has two instances: {!Bench}, the single object, and
    {!Space_bench}, the sharded space, whose log is per shard and whose
    restore is the UCX snapshot/absorb path. [ok] is the conjunction of
    the clauses that ran; CI gates on it. *)

val dummy_ctx : pid:int -> n:int -> 'msg Protocol.ctx
(** A context that drops every message — for replicas used as
    sequential replay oracles. *)

type sharding = {
  shards : int;
  keys : int;
  skew : float;
  fanout : int;
  shard_log_min : int;
  shard_log_max : int;  (** longest per-shard log — skew made visible *)
}
(** The sharded space's workload and per-shard log spread. *)

type row = {
  spec : string;
  domains : int;
  ops_per_domain : int;
  total_ops : int;
  updates : int;
      (** log entries the scripts issued: updates on the single object,
          keyed sub-updates (Σ batch widths) on the sharded space *)
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
  sharding : sharding option;  (** [Some] on sharded-space rows only *)
  ok : bool;  (** the differential verdict, never a throughput bound *)
}
(** One BENCH_throughput.json / BENCH_shard.json record. *)

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

(** What the differential reads of a replica. *)
module type LOG_VIEW = sig
  type t
  type update
  type state
  type entry

  val same_log : t -> t -> bool
  (** Clause 1: whether two replicas hold the same log, compared in
      place. *)

  val log : t -> (Timestamp.t * int * entry) list
  (** Replica 0's log (timestamp, origin, entry), timestamp-sorted,
      built once for clauses 2, 3 and 5. *)

  val fold : (Timestamp.t * int * entry) list -> state
  (** Clause 2: the timestamp-order fold of a log. *)

  val restore : into:t -> from:t -> (Timestamp.t * int * entry) list -> bool
  (** Clause 3: restore a fresh replica from replica 0 (or its log);
      [false] when the restore path refuses. *)

  val entries : update -> int
  (** Clause 5: log entries one client update contributes. *)
end

module type VIEW = sig
  include Protocol.PROTOCOL

  include
    LOG_VIEW with type t := t and type update := update and type state := state
end

(** The one differential, over a log view. *)
module Make (V : VIEW) : sig
  module E : module type of Parallel_engine.Make (V)
  module Mon : module type of Obs.Monitor.Make (V)

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
    issued : int;  (** log entries the scripts issued *)
    clauses : (string * bool) list;
        (** the clauses that ran, in order: ["logs agree"],
            ["omega = ts-fold"], ["restore = ts-fold"],
            ["updates conserved"], then ["sequential runner"]
            (commutative specs only) and ["journal replay"] (with a
            recorder only) *)
    recording : recording option;
    state_repr : string;  (** rendered timestamp-order fold *)
    stages : (string * float) list;
        (** wall-clock seconds of each stage of [measure], in run order:
            ["engine"], ["log agreement"], ["fold"] (replica 0's log,
            the fold and the ω comparison), ["restore and query"],
            ["sequential clause"] (commutative specs only),
            ["recording"] (with a recorder only) and
            ["latency summary"] *)
  }

  val ok : verdict -> bool
  (** Every clause that ran holds. *)

  val judge :
    ?recorder:Obs.Recorder.t ->
    ?monitor:Obs.Monitor.criterion list ->
    ?journal_header:(string * Obs.Json.t) list ->
    ?seq_seed:int ->
    final_read:V.query ->
    scripts:(V.update, V.query) Protocol.invocation list array ->
    E.result ->
    verdict
  (** Run the clause list over a quiesced engine result (its replicas
      and ω answers to [final_read]). With [?recorder] (the one the run
      was recorded into) the merged stream becomes a sealed journal
      (header fields from [?journal_header]), the replay bridge verdict
      becomes clause 6, and [?monitor] criteria are checked online over
      the same stream. *)

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
    final_read:V.query ->
    scripts:(V.update, V.query) Protocol.invocation list array ->
    unit ->
    verdict
  (** Run the engine on the scripts with an ω [final_read] everywhere,
      then {!judge} the result. *)

  val history_of_events :
    scripts:(V.update, V.query) Protocol.invocation list array ->
    final_read:V.query ->
    query_outputs:V.output list array ->
    omega_outputs:(int * V.output) list ->
    Obs.Recorder.event list ->
    (V.update, V.query, V.output) History.t
  (** Resolve a merged recorder stream against the (regenerated)
      scripts and the run's recorded outputs into a {!History}: one
      line per domain in program order, ω read last. The recorder
      stores no payloads — the scripts being pure functions of the
      seed is what makes this total.
      @raise Failure when the stream and the scripts disagree (a
      corrupt or mismatched recording). *)

  val journal_of_events :
    ?header:(string * Obs.Json.t) list ->
    scripts:(V.update, V.query) Protocol.invocation list array ->
    final_read:V.query ->
    query_outputs:V.output list array ->
    omega_outputs:(int * V.output) list ->
    Obs.Recorder.event list ->
    Obs.Journal.t
  (** The merged stream as a standard journal, in merge order:
      invocations become [Update]/[Query] events, sends become [Frame]s
      (arrival patched from the matching deliver via per-(src,dst)
      FIFO), delivers and stalls keep their kind. Sealed with the
      {!history_of_events} fingerprint. @raise Failure as above. *)

  val replay_journal :
    scripts:(V.update, V.query) Protocol.invocation list array ->
    final_read:V.query ->
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
    scripts:(V.update, V.query) Protocol.invocation list array ->
    final_read:V.query ->
    query_outputs:V.output list array ->
    omega_outputs:(int * V.output) list ->
    Obs.Recorder.event list ->
    Mon.t
  (** Feed the merged stream through the online monitors; violation
      indices are journal event indices (the walk is the same one
      {!journal_of_events} uses). *)

  val row : ?batch:int -> ?flush_window:int -> ops_per_domain:int -> verdict -> row
  (** [batch]/[flush_window] (defaults 1/0) annotate the row with the
      knobs the cell ran under — [measure] does not retain them. *)
end

(** The single object: Algorithm 1's log, compared in place
    ({!Generic.Make.same_log}) and restored through
    {!Generic.S.restore_log}, the persistence path. *)
module Bench (A : Uqadt.S) : sig
  module G : sig
    include
      Generic.S
        with type update = A.update
         and type query = A.query
         and type output = A.output
         and type state = A.state

    include
      LOG_VIEW
        with type t := t
         and type update := update
         and type state := state
         and type entry = A.update
  end

  include module type of Make (G)

  val uniform_scripts :
    seed:int ->
    domains:int ->
    ops:int ->
    query_ratio:float ->
    (A.update, A.query) Protocol.invocation list array
  (** One {!Prng.fork}ed client stream per domain off [seed]; each
      script mixes [A.random_update] with [A.random_query] at
      [query_ratio]. A pure function of its arguments. *)
end

(** The sharded {!Space}: per-shard logs must be equal across replicas,
    replica 0's log is the timestamp-sorted union of its shard logs,
    the restore is the whole-space snapshot/absorb path (churn catch-up,
    shard migration), and conservation counts keyed sub-updates. *)
module Space_bench
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) : sig
  module S : sig
    include module type of Space.Make (A) (C)

    include
      LOG_VIEW
        with type t := t
         and type update := update
         and type state := state
         and type entry = int * A.update
  end

  include module type of Make (S)

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
    shards:int ->
    domains:int ->
    scripts:(S.update, S.query) Protocol.invocation list array ->
    unit ->
    verdict
  (** Configure a static [shards]-shard map (no rebalancing policy — the
      ring never changes during the parallel run), then run the engine
      with an ω sweep everywhere and judge it. *)

  val row :
    ?batch:int ->
    ?flush_window:int ->
    ops_per_domain:int ->
    shards:int ->
    keys:int ->
    skew:float ->
    fanout:int ->
    verdict ->
    row
  (** The generic row with its {!sharding} columns filled in. *)
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
