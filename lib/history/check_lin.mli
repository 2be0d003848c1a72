(** Linearizability (Herlihy & Wing) — atomicity, the paper's reference
    point for "strong" consistency (Section I cites the Attiya–Welch
    separation between it and sequential consistency).

    A timed history is linearizable iff some linearization in [L(O)]
    additionally respects the {e real-time} order: if operation [a]
    responded before operation [b] was invoked, [a] precedes [b].
    Real-time constraints come from the runner's recorded intervals, so
    this checker applies to executions, not to bare histories (the
    paper's criteria never need wall-clock — that is exactly what makes
    them cheaper).

    Used to validate the ABD baseline (its runs must be linearizable)
    and to exhibit the converse: wait-free update-consistent objects
    answer stale reads, so their runs generally are not. *)

type intervals = { starts : float array; finishes : float array }
(** The real-time spans of a run, indexed by event id: [starts.(id)] is
    event [id]'s invocation time and [finishes.(id)] its response time.
    Unboxed, so a run's spans cost two words per event. *)

module Make (A : Uqadt.S) : sig
  type history = (A.update, A.query, A.output) History.t

  val witness :
    history ->
    intervals:intervals ->
    (A.update, A.query, A.output) History.event list option
  (** One span per event of the history. Use an infinite response for
      operations that never completed (they then constrain nothing after
      them, the standard treatment of pending operations that are deemed
      to take effect). *)

  val holds : history -> intervals:intervals -> bool
end
