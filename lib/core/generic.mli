(** Algorithm 1: the generic strong-update-consistent universal
    construction, on the shared {!Oplog} substrate.

    Every update is timestamped with (Lamport clock, pid) — a total
    order that contains the happened-before relation — and reliably
    broadcast; each replica keeps the set of timestamped updates it has
    received, sorted; a query replays the sorted log from the initial
    state and evaluates on the result (lines 12–19 of the paper).
    Wait-free: both operations complete locally, whatever the network
    does. Proposition 4: all histories this produces are SUC.

    Since the oplog refactor this replica is no longer naive: insertion
    is a binary-search locate plus blit, and queries replay from
    {!Oplog} interval checkpoints (Section VII.C's "effective
    implementation"), on by default every [!checkpoint_interval]
    entries. The seed cons-list implementation survives as
    {!Generic_ref} for differential testing and as the paper-faithful
    naive baseline; {!Memo} remains the fixed-interval variant the
    C2/A1 experiment narrative is written against. *)

(** What every Algorithm 1-shaped replica exposes beyond
    {!Protocol.PROTOCOL}: the log/clock view {!Persist} serialises and
    the model checker's snapshot layer restores. Implemented by both
    the oplog core ({!Make}) and the seed list core
    ({!Generic_ref.Make}), so persistence, snapshotting and the
    differential tests are written once against this signature. *)
module type S = sig
  include Protocol.PROTOCOL

  val message_update : message -> update
  (** The update payload a broadcast message carries, without its
      timestamp — for observers (like the model checker's
      commutativity-aware state keys) to which timestamps are
      unobservable. *)

  val local_log : t -> (Timestamp.t * int * update) list
  (** The replica's timestamp-sorted update log (timestamp, origin pid,
      update) — exposed for the experiments, the model checker and
      {!Persist}. *)

  val encode_log :
    t -> encode_update:(Codec.Writer.t -> update -> unit) -> string
  (** The log serialised in the {!Oplog} "UCL" frame — byte-for-byte
      [Oplog.encode_list (local_log t)], but cores backed by the array
      substrate encode straight off the backing array into an
      exactly pre-sized buffer ({!Oplog.encode}), skipping the
      {!local_log} list materialisation. The {!Persist} snapshot hot
      path. *)

  val restore_log : t -> (Timestamp.t * int * update) list -> unit
  (** Crash recovery: replace the replica's log with a decoded snapshot
      (see {!Persist}) and advance its Lamport clock past every restored
      timestamp, so operations issued after recovery still sort after
      everything the replica had acknowledged before the crash. *)

  val clock_value : t -> int
  (** The replica's current Lamport clock. Together with {!local_log}
      this is the replica's complete protocol state — the log alone is
      not enough for exact state reconstruction, because queries tick
      the clock without leaving a log entry. *)

  val advance_clock : t -> int -> unit
  (** Merge an externally recorded clock value (max semantics). Used by
      {!Persist} to make a restored replica's clock {e exactly} match
      the snapshotted one when restoring into a fresh replica. *)
end

module Make (A : Uqadt.S) : sig
  include
    S
      with type state = A.state
       and type update = A.update
       and type query = A.query
       and type output = A.output

  val checkpoint_interval : int ref
  (** Entries between replay checkpoints for replicas created {e after}
      the assignment; [0] disables checkpointing (pure full replay over
      the array core). Default [32]. Per functor instantiation — the
      [ucsim --checkpoint-interval] flag sets it before building
      replicas. *)

  val checkpoints_live : t -> int
  (** Currently valid {!Oplog} checkpoints (diagnostics). *)

  val same_log : t -> t -> bool
  (** [same_log a b] iff [local_log a] and [local_log b] hold the same
      entries (payloads compared with [A.equal_update]), decided in
      place on the two logs ({!Oplog.equal_entries}) without building
      either list. *)
end
