(** Flight recorder for the multicore engine: per-domain append-only
    event capture with a deterministic post-run merge.

    The parallel engine ({!Parallel_engine}) runs under a real OS
    schedule, so a run that misbehaves is gone the moment it ends —
    unless its per-replica delivery order was captured. The recorder
    captures exactly that: each domain appends fixed-size binary
    records (invoke / send / deliver / stall) into its own {e private}
    chunk list — no atomics, no locks, no cross-domain contention on
    the hot path; [Domain.join] is the only synchronisation, after
    which the collector owns every buffer.

    Every record carries three stamps:

    {ul
    {- a {b Lamport clock}, bumped on every local record; a send
       returns the sender's clock for the frame to carry, and a deliver
       advances to [max(local, frame) + 1] — so the clocks order every
       send before its matching deliver;}
    {- a {b wall-clock} reading from the injected [now] (the engine
       installs its run-relative wall clock; tests install a counter,
       which is what makes recorded journals byte-pinnable);}
    {- its {b per-domain sequence number} (the record's index in its
       domain's stream); delivers additionally carry the destination's
       delivery sequence number.}}

    {!events} merges the per-domain streams into one list sorted by
    [(lamport, pid, seq)] — a linear extension of the happens-before
    relation that also preserves every domain's program order (the
    clock strictly increases within a domain). The merged stream is
    what the analysis layer turns into a {!Journal}, feeds to the
    online monitors, and replays on the sequential core. *)

type t
(** A run-level recorder: one buffer per domain, created up front. *)

type handle
(** One domain's private append handle. Obtain all handles before
    spawning; a handle must only ever be written by its own domain. *)

val create : ?now:(unit -> float) -> ?chunk:int -> domains:int -> unit -> t
(** [chunk] is the records-per-chunk granularity (default 4096; tests
    shrink it to exercise chunk growth). When [now] is omitted the
    recorder stamps [0.0] until a clock is installed with
    {!install_clock}. @raise Invalid_argument on [domains <= 0] or
    [chunk < 1]. *)

val install_clock : t -> (unit -> float) -> unit
(** Install the wall clock when none was given to {!create}; a clock
    supplied at creation (a test's deterministic counter) wins. The
    engine calls this once, before spawning, with its run-relative
    [Unix.gettimeofday] — the spawn is the synchronisation point. *)

val handle : t -> int -> handle
(** The (pre-created) handle for domain [pid]; pure lookup, safe from
    anywhere. *)

val invoke_update : handle -> unit

val invoke_query : handle -> omega:bool -> unit

val send : handle -> dst:int -> count:int -> bytes:int -> int
(** Record one outgoing frame of [count] messages and return the
    Lamport stamp the frame must carry to [dst]. *)

val deliver : handle -> src:int -> count:int -> frame_lamport:int -> unit
(** Record the delivery of a frame recorded with {!send}; advances the
    local clock past [frame_lamport] and assigns the next per-domain
    delivery sequence number. *)

val stall : handle -> dst:int -> unit
(** Record that a push to [dst]'s mailbox found it full (one record per
    stalled frame, however many retries the slow path spins through —
    the retry count is a metric, not an event). *)

val recorded : t -> int
(** Total records appended across all domains so far. Call only when
    the writing domains are quiescent. *)

(** One decoded record. [pid] is the recording domain, [seq] its index
    in that domain's stream, [lamport] and [wall] its stamps. *)
type event =
  | Invoke_update of { pid : int; seq : int; lamport : int; wall : float }
  | Invoke_query of {
      pid : int;
      seq : int;
      lamport : int;
      wall : float;
      omega : bool;
    }
  | Send of {
      pid : int;
      seq : int;
      lamport : int;
      wall : float;
      dst : int;
      count : int;
      bytes : int;
    }
  | Deliver of {
      pid : int;
      seq : int;
      lamport : int;
      wall : float;
      src : int;
      count : int;
      dseq : int;  (** destination's delivery sequence number, from 0 *)
    }
  | Stall of { pid : int; seq : int; lamport : int; wall : float; dst : int }

val event_pid : event -> int

val event_lamport : event -> int

val event_wall : event -> float

val events : t -> event list
(** Decode and merge every domain's stream, sorted by
    [(lamport, pid, seq)]. Call after the writing domains have joined;
    the recorder itself is not reset, so the call is repeatable. Each
    domain's stream is already in that order, so this is a k-way merge
    rather than a sort.
    @raise Invalid_argument if a domain's Lamport stamps decrease along
    its stream (a corrupt recording; the stamping discipline never
    produces one). *)
