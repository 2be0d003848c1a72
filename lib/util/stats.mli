(** Descriptive statistics for benchmark and convergence measurements. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float list -> summary
(** Summary of a non-empty sample; raises [Invalid_argument] on [[]].
    {!summarize_array} over the list's elements. *)

val summarize_array : float array -> summary
(** {!summarize} over an unboxed sample, which it {e sorts in place}
    (ascending, NaNs first, as [Float.compare] orders them) by a
    monomorphic merge sort — no element is boxed. Mean and deviation
    are summed in the array's original order, so the summary of
    [Array.of_list xs] is bit-identical to [summarize xs]. Raises
    [Invalid_argument] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [\[0,1\]]; [sorted] must be sorted
    ascending and non-empty. Linear interpolation between ranks. *)

val mean : float list -> float

val stddev : float list -> float
(** Population standard deviation. *)

val pp_summary : Format.formatter -> summary -> unit

type slo = {
  target : float;  (** latency objective the sample is judged against *)
  count : int;
  p50 : float;
  p99 : float;
  max : float;
  violations : int;  (** samples strictly above [target] *)
  compliance : float;  (** fraction of samples at or under [target] *)
}

val slo : target:float -> float list -> slo
(** SLO report of a non-empty latency sample against [target]; raises
    [Invalid_argument] on []. The objective is judged "met" when the
    p99 is at or under the target (see {!pp_slo}). *)

val slo_by_key : target:float -> (int * float) list -> slo
(** SLO report over keyed samples, one verdict per distinct key: samples
    sharing a key are collapsed to their maximum before judging. Use
    when one logical operation fans out into several timed
    sub-operations (an arrival touching many shards) — the operation is
    only as fast as its slowest leg, and counting each leg separately
    would overweight wide fan-outs. Raises [Invalid_argument] on []. *)

val pp_slo : Format.formatter -> slo -> unit

type window
(** Fixed-capacity sliding window over the most recent samples. Pushing
    is O(1) and never allocates after construction, so a window can sit
    on the hot path of a week-long soak without growing. *)

val window : capacity:int -> window
(** Raises [Invalid_argument] when [capacity <= 0]. *)

val window_push : window -> float -> unit
(** Records a sample, evicting the oldest once [capacity] is held. *)

val window_length : window -> int
(** Samples currently held, at most the capacity. *)

val window_pushed : window -> int
(** Samples ever offered, including evicted ones. *)

val window_samples : window -> float list
(** Retained samples, oldest first. *)

val window_summary : window -> summary option
(** [None] while the window is empty. *)

val window_slo : target:float -> window -> slo option
(** {!slo} over the retained samples; [None] while the window is
    empty — the windowed variant never raises. *)

type histogram

val histogram : buckets:int -> float list -> histogram
(** Equal-width histogram over the sample range. *)

val pp_histogram : Format.formatter -> histogram -> unit
(** Renders the histogram with unicode bars, one bucket per line. *)
