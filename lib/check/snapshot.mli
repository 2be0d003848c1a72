(** Plugging the protocol stack into the {!Explore} engine.

    The engine is deliberately protocol-agnostic: checkpointing needs a
    {!Explore.snapshotter}, reduction needs a delivery-commutativity
    oracle, and commutativity-aware deduplication needs a state key.
    This module derives all three from the existing layers — {!Persist}
    for exact replica snapshots and the spec's [commutative] flag (the
    same condition {!Commutative} enforces at replica creation) for the
    oracles — so checker call sites stay one-liners.

    Since the oplog refactor the adapters are written once against
    {!Generic.S}, the signature both log cores implement, so the
    explorer's checkpointed replay works identically over the oplog
    core ({!Generic.Make}) and the seed list core
    ({!Generic_ref.Make}) — which is how the model-check suite A/Bs
    them under the same engine. *)

(** Adapters for any Algorithm 1-shaped replica: instantiate with the
    spec, its update codec, and the core ({!Generic.Make (A)} or
    {!Generic_ref.Make (A)}). *)
module For_replica
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update)
    (G : Generic.S
           with type state = A.state
            and type update = A.update
            and type query = A.query
            and type output = A.output) : sig
  val snapshotter : G.t Explore.snapshotter
  (** {!Persist.Over.snapshot_replica} / [restore_replica]: the
      timestamp-sorted log plus the exact Lamport clock, restored into
      the fresh replica the engine creates on rewind. *)

  val deliveries_commute : G.message -> G.message -> bool
  (** Always [true]: Algorithm 1 receives by timestamp-sorted insert
      plus a max clock merge, both order-insensitive, so any two
      deliveries to the same replica commute — independent of the
      spec. *)

  val commutative_key : G.t -> string
  (** Timestamp-blind state key: the {e multiset} of (origin, update)
      pairs in the log, ignoring timestamps. For a commutative spec the
      replayed state — hence every future query answer — depends only
      on that multiset, so states differing only in timestamps are
      observationally equivalent and may share a fingerprint. This is
      what collapses the Lamport-clock explosion on counter scopes.

      @raise Invalid_argument unless [A.commutative] (for
      non-commutative specs replay order matters, so timestamps are
      observable and this key would merge distinguishable states). *)

  val commutative_message_key : G.message -> string
  (** Companion to {!commutative_key} for the engine's [message_key]
      option: renders an in-flight message as its update payload alone.
      Without it, fingerprints still distinguish states by the Lamport
      timestamps sitting in the network — the dominant source of state
      blow-up on commutative scopes.

      @raise Invalid_argument unless [A.commutative]. *)
end

(** {!For_replica} over the oplog-core {!Generic.Make} — the
    instantiation every seed call site uses. *)
module For_generic
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) : sig
  val snapshotter : Generic.Make(A).t Explore.snapshotter

  val deliveries_commute : Generic.Make(A).message -> Generic.Make(A).message -> bool

  val commutative_key : Generic.Make(A).t -> string
  (** @raise Invalid_argument unless [A.commutative]. *)

  val commutative_message_key : Generic.Make(A).message -> string
  (** @raise Invalid_argument unless [A.commutative]. *)
end

(** Oracle for apply-on-receive replicas ({!Commutative.Make}). *)
module For_commutative (A : Uqadt.S) : sig
  val deliveries_commute :
    Commutative.Make(A).message -> Commutative.Make(A).message -> bool
  (** [A.commutative], for every message pair: apply-on-receive executes
      updates directly, so same-replica deliveries commute exactly when
      the spec's updates all do — the condition {!Commutative.Make}
      already refuses to run without. *)
end
