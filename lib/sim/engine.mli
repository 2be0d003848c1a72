(** Discrete-event simulation core.

    The engine is a clock plus a priority queue of timestamped thunks.
    Determinism: ties are broken by insertion sequence number, and all
    randomness in the layers above comes from {!Prng} streams derived
    from the run's root seed, so a run is a pure function of its seed —
    the property that makes the adversarial-schedule experiments
    reproducible.

    Layout: the queue is a binary min-heap ordered by (time, seq),
    compared inline, and held in three parallel arrays in heap order —
    a [Float.Array] of event times (unboxed), an [int array] of
    sequence numbers and an [int array] of thunk slots. The thunks stay
    put in a slot-indexed array (with a stack of free slots), so a sift
    moves only floats and ints and never goes through the write
    barrier. Scheduling and executing an event allocate nothing once
    the arrays have grown (they double and never shrink), and the clock
    itself is kept unboxed; {!now} boxes it at most once per executed
    event. The slot of an executed event is reset to a no-op thunk, so
    the thunk, and whatever it captured, is garbage as soon as it has
    run, even while the engine stays reachable.

    Pop order: (time, seq) is a total order — times are never NaN and
    every event gets a fresh seq — so any correct priority queue pops
    the same sequence; the order is exactly a stable sort of the
    scheduled events by (time clamped to the clock at scheduling,
    scheduling order). *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run the thunk [delay] time units from now. [delay] must be finite
    and non-negative. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; times in the past execute "now". *)

val pending : t -> int

val run : ?until:float -> t -> unit
(** Execute events in time order until the queue is empty or the clock
    would pass [until]. *)

val step : t -> bool
(** Execute the single next event; [false] if the queue was empty. *)
