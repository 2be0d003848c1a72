(** Export span events in Chrome/Perfetto [trace_event] JSON.

    The output loads in [ui.perfetto.dev] / [chrome://tracing]: each
    replica is a Perfetto "process" ([pid]), message transits render as
    complete slices ([ph:"X"]) on the destination replica with one
    track per sender, and invoke/apply instants are linked across
    replicas by flow events ([ph:"s"]/[ph:"f"]) keyed on the span id —
    so selecting one update shows its whole propagation fan-out.
    Simulated time (arbitrary units, conventionally ms) maps to trace
    microseconds at [×1000]. *)

val to_json :
  ?meta:(string * Json.t) list -> ?replicas:int -> Span.t -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}]. When [replicas]
    is given, one [ph:"M"] "process_name" metadata event labels each
    replica's track; when [meta] is non-empty, a [ph:"M"]
    "ucsim_config" metadata event carries it as [args] — seed, replica
    count, protocol, batch window — making the trace file
    self-describing. Neither adds renderable events. *)

val pp_span_dump : Format.formatter -> Span.t -> unit
(** Compact OTLP-like dump, one block per span: id, label, origin,
    invocation time, then one line per delivery/apply. *)
