(** The protocol table and the one sequential driver behind [ucsim run],
    [soak], [replay] and [shrink].

    Each table entry binds a protocol name to its module, the workload
    generator and final read of its object type, and whether it needs
    FIFO channels; {!run} executes any {!Run_spec.sim} on the
    {!Runner} with every fault, monitor and telemetry setting the
    description carries. *)

(** Where a run's results go — none of this is part of the run's
    description, so none of it reaches the journal header. *)
type outputs = {
  check : bool;  (** run the UC/EC checkers on the history *)
  trace : bool;  (** print the space-time trace *)
  obs : bool;  (** print the telemetry registry *)
  trace_out : string option;  (** Perfetto trace-event JSON *)
  registry_out : string option;
  span_dump : bool;
  journal_out : string option;
  series_out : string option;  (** soak runs: the sample stream *)
}

val quiet : outputs
(** Every output off. *)

val protocols : (string * string) list
(** [(name, description)] of every table entry, in [ucsim list] order. *)

val names : string list

type outcome = { converged : bool; alerts_fired : int }

val run :
  ?journal:Obs.Journal.t ->
  ?outputs:outputs ->
  Run_spec.sim ->
  (outcome, string) result
(** Execute the description and print its report on stdout. [journal]
    (a replay's capture) or [outputs.journal_out] records the run under
    the description's header. A soak description also arms its sampler
    and alert rules; firings are printed, journaled and streamed to
    [outputs.series_out]. [Error] — before anything runs — on an unknown
    protocol, a FIFO-only protocol without [fifo], or explicit scripts
    the protocol cannot take. *)

type shrunk = {
  recorded : string;  (** the recorded scenario, printed *)
  minimized : string;
  violation : Obs.Monitor.violation;
  events : int;
  runs : int;  (** re-executions spent *)
  journal : Obs.Journal.t;  (** the minimized run, headed and sealed *)
}

val shrink : ?max_runs:int -> Run_spec.sim -> (shrunk, string) result
(** Minimize a monitor-flagged run ({!Scenario.Make.shrink}) of a
    protocol with a script codec; the minimized journal's header is the
    description with the smaller fault schedule and explicit scripts. *)

val print_monitor_report :
  criteria:Obs.Monitor.criterion list ->
  events:int ->
  Obs.Monitor.violation list ->
  unit
(** One line per criterion: clean, or the first violating event. *)

(** {2 Command line} *)

val seed_arg : int Cmdliner.Term.t

val monitors_conv : Obs.Monitor.criterion list Cmdliner.Arg.conv
(** [uc,ec,pc] *)

val term : ?ops:int -> unit -> (Run_spec.sim * outputs) Cmdliner.Term.t
(** The positional protocol plus every flag of the description and of
    {!outputs} except [series_out]; [ops] overrides the default
    operations per process. *)
