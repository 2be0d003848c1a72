(** The one run description.

    A value of {!t} is everything a journal header records about a run,
    and nothing else: [ucsim run], [soak], [replay], [shrink] and
    [bench] build one, {!to_header} writes it as the journal's first
    line, and {!of_header} reads it back so a replay re-executes the
    identical schedule. Runtime attachments — capture journals,
    telemetry bundles, output files — are not part of the description;
    {!Run_driver.run} takes them as arguments. *)

type soak = {
  sample_interval : float;  (** sampler cadence, simulated time *)
  duration : float option;  (** horizon overriding the runner deadline *)
  rules : Obs.Alert.rule list;
}

(** A run on the sequential simulator ({!Runner}). *)
type sim = {
  protocol : string;  (** a {!Run_driver.names} entry *)
  seed : int;
  n : int;
  ops : int;  (** operations per process *)
  mean_delay : float;  (** exponential message delay mean *)
  fifo : bool;
  crashes : (float * int) list;  (** (time, pid) *)
  checkpoint_interval : int option;
      (** Oplog checkpoint cadence of the Algorithm 1 protocols *)
  batch_window : float option;
  probe_interval : float option;
  monitors : Obs.Monitor.criterion list;
  partitions : Network.partition list;
  churn : Network.churn_event list;
  scripts : string list list option;
      (** explicit printed per-process scripts overriding the generated
          workload — how a minimized journal replays from the file *)
  shards : int;  (** sharded object space only, like [keys]/[rebalance] *)
  keys : int;
  rebalance : float option;  (** hot-shard policy interval *)
  soak : soak option;  (** [Some] exactly on soak runs *)
}

(** A run on the multicore engine ({!Parallel_engine}), as [ucsim bench]
    flight-records it. *)
type parallel = {
  spec : string;  (** a {!Registry} object name *)
  seed : int;
  domains : int;
  ops : int;  (** per domain *)
  query_ratio : float;
  zipf : float;  (** > 0: the contended set workload *)
  batch : int;
  flush_window : int;
  mailbox : int;
}

type t = Sim of sim | Parallel of parallel

val default : sim
(** [ucsim run]'s defaults: universal, seed 42, 4 processes, 100 ops,
    mean delay 10, no faults, one shard over 64 keys. *)

val to_header : t -> (string * Obs.Json.t) list
(** Sharded fields appear only when they differ from {!default}, soak
    fields only on soak runs, so every other header stays byte-identical
    to those written before the fields existed. *)

val of_header : (string * Obs.Json.t) list -> (t, string) result
(** Total inverse of {!to_header}: [of_header (to_header t) = Ok t], and
    any other field list yields [Ok] or a one-line [Error], never an
    exception. *)

val trace_meta : sim -> (string * Obs.Json.t) list
(** Perfetto metadata row of the trace export. *)

val series_meta : sim -> soak -> (string * Obs.Json.t) list
(** Meta line of a soak series stream. *)
