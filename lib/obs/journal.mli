(** Append-only structured event journal for a simulation run.

    One journal per run, attached through {!Obs.t} ([obs.journal]); the
    {!Runner} and {!Network} record every invocation, wire frame,
    delivery, drop, crash, partition window, and convergence-probe
    sample as it happens, in simulated-time order. The journal is
    self-describing: the header carries the run's seed and
    configuration (set by the CLI), each operation event carries its
    {!Span} causal id, and the footer carries the fingerprint of the
    extracted history — enough for [ucsim replay] to re-execute the
    schedule deterministically and verify it reproduced the same run.

    The serialized form is JSONL via {!Json}: one header line
    [{"journal":"ucsim","version":1,...config...}], one line per event
    (discriminated by the ["ev"] field), and one footer line
    [{"fingerprint":...,"events":N}]. Event {e indices} — as reported
    by the online {!Monitor} and accepted by [ucsim replay --until] —
    are 0-based positions in the event body, header and footer
    excluded. *)

type event =
  | Update of { pid : int; time : float; span : int option; label : string }
  | Query of {
      pid : int;
      invoked : float;
      completed : float;
      span : int option;
      label : string;
      output : string;
      omega : bool;  (** a final read, repeated infinitely *)
    }
  | Frame of {
      src : int;
      dst : int;
      count : int;  (** messages in the frame *)
      bytes : int;  (** wire bytes charged, envelope included *)
      sent : float;
      arrival : float;
      spans : int option list;
    }  (** one wire frame leaving the network layer *)
  | Deliver of { src : int; dst : int; count : int; time : float }
  | Drop of { pid : int; count : int; time : float }
      (** messages dropped at a crashed sender or destination *)
  | Crash of { pid : int; time : float }
  | Join of { pid : int; time : float; rejoin : bool; bytes : int }
      (** churn: replica attached ([rejoin] when resuming its own
          crash-time state); [bytes] is the catch-up snapshot volume
          transferred from the donor peer (0 when no donor was
          reachable) *)
  | Leave of { pid : int; time : float }
      (** churn: replica detached from the wire, state retained *)
  | Partition of { from_time : float; to_time : float; group : int list }
      (** nemesis window, recorded up front (the schedule is static) *)
  | Probe of { time : float; distinct : int }
      (** convergence probe: distinct state fingerprints among live
          replicas *)
  | Rebalance of {
      time : float;
      hot : int;
      fresh : int;
      shards : int;
      moved : int;
    }
      (** hot-shard split: shard [hot] shed keys to new shard [fresh],
          leaving [shards] on the ring; [moved] log entries were
          re-homed at the splitting replica (the rest migrate lazily) *)
  | Shard of { time : float; shard : int; ops : int; log : int }
      (** per-shard op-rate sample at a rebalance check: [ops] updates
          routed to [shard] in the closing window, [log] its local log
          length at the sampling replica *)
  | Alert of { time : float; rule : string; series : string; value : float }
      (** a soak alert rule fired at a sample tick: [rule] is the
          canonical rule string, [series] the offending series (labels
          included), [value] the reading that tripped it *)
  | Stall of { pid : int; dst : int; time : float }
      (** multicore backpressure: a frame [pid] pushed toward [dst]
          found the destination mailbox full and took the
          drain-own-mailbox slow path (recorded once per stalled frame,
          not per retry) — only the flight recorder of the parallel
          engine emits these *)

type t

exception Parse_error of string

val create : ?header:(string * Json.t) list -> unit -> t

val set_header : t -> (string * Json.t) list -> unit
(** Replace the self-description fields serialized on the header line
    (seed, protocol, …; see [Run_spec]). The ["journal"] and
    ["version"] discriminators are added at serialization time. *)

val header : t -> (string * Json.t) list

val record : t -> event -> unit

val length : t -> int
(** Events recorded so far — also the index the next event will get. *)

val events : t -> event list
(** In recording order. *)

val event : t -> int -> event
(** @raise Invalid_argument if the index is out of range. *)

val seal : t -> fingerprint:string -> unit
(** Attach the {!History.fingerprint} of the extracted history, written
    to the footer line. *)

val fingerprint : t -> string option

val event_time : event -> float

val event_to_json : event -> Json.t

val event_of_json : Json.t -> event
(** @raise Parse_error on an unknown kind or a missing field. *)

val to_jsonl : t -> string

val of_jsonl : string -> t
(** @raise Parse_error on malformed JSON, a missing or foreign header,
    a missing footer (truncation), or an event count that contradicts
    the footer. Messages include the offending line number. *)

val pp_event : Format.formatter -> event -> unit

val diff : t -> t -> (int * string * string) option
(** First structural divergence between two journals: [Some (i, a, b)]
    where [i] is the first event index at which the timestamp-ordered
    streams disagree and [a]/[b] render each side's event at that index
    (["(end of journal)"] if one side is exhausted); [None] if the
    journals are identical event for event. Headers and fingerprints
    are not compared — use {!fingerprint} for that. *)
