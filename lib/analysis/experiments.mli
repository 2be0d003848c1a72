(** Experiment drivers: one entry per artefact in DESIGN.md's
    per-experiment index. Each returns a rendered table (plus expected
    verdicts asserted inline where the paper states them), so the bench
    harness and the CLI print exactly the rows EXPERIMENTS.md records.

    All experiments are deterministic in [seed]. *)

val fig1 : unit -> Table.t
(** F1 — the Figure 1 classification matrix: histories (a)–(d) against
    {EC, SEC, PC, UC, SUC, SC}, checker verdict vs paper caption. *)

val fig2 : unit -> string
(** F2 — Figure 2: the history, the per-process PC witnesses (the
    paper's w1/w2 words), and the EC verdict. *)

val prop1 : seed:int -> Table.t
(** P1 — Proposition 1: Figure 2's program under the pipelined replica
    diverges forever (PC ∧ ¬EC) while Algorithm 1 converges. *)

val prop4_modelcheck : unit -> Table.t
(** P4 — exhaustive model check of Algorithm 1 / Algorithm 2 / CRDT
    fast path on conflict scripts: executions explored, UC/EC/SUC
    violations (expected 0), plus the pipelined counterexample count. *)

val set_comparison : seed:int -> Table.t
(** T6 — Section VI: the same conflict programs on the universal set
    and the CRDT sets; final states, convergence, and which histories
    are update consistent. *)

val protocol_criteria : seed:int -> Table.t
(** T7 — the empirical criteria matrix: run the same small conflict
    program on every set protocol in the repository and report which
    consistency criteria the {e extracted history} satisfies. The
    paper's conceptual comparison (pipelined < update < sequential;
    CRDTs convergent but not UC), decided by the checkers on real
    runs. *)

val invariant_preservation : seed:int -> Table.t
(** T6b — Section VI generalised beyond sets: a bank balance with
    overdraft protection under concurrent withdrawals. The commutative
    (PN-counter) balance goes negative; the update-consistent bank
    applies the guard in the agreed order and never does. *)

val message_complexity : seed:int -> Table.t
(** C1 — messages per update and bytes per message vs number of
    processes and operations: Algorithm 1's constant-size updates vs
    state-shipping CRDTs. *)

val query_cost : seed:int -> Table.t
(** C2 — replay work per query vs log length: naive Algorithm 1 vs
    memoized snapshots vs undo-based vs Algorithm 2. *)

val log_gc : seed:int -> Table.t
(** C3 — retained log length and metadata with and without
    stability-based GC, including the crash case that freezes the
    stability bound. *)

val latency_vs_rtt : seed:int -> Table.t
(** C4 — mean operation latency as network delay grows: wait-free
    constructions stay flat, the ABD linearizable register scales with
    the round trip. *)

val availability : seed:int -> Table.t
(** C4b — a partition isolating a minority: ABD operations stall
    (incomplete), the universal construction stays available and
    converges after healing. *)

val crdt_fastpath : seed:int -> Table.t
(** C5 — commutative types: the universal construction vs the
    apply-on-receive fast path vs native state-based CRDTs. *)

val monitor_latency : seed:int -> Table.t
(** C6 — online monitor detection latency: journal length, first
    violating event index and how far into the run it falls, for
    Algorithm 1 (clean end to end) vs the pipelined replica (caught
    mid-journal), against the post-hoc PC/UC verdicts. *)

val undo_ablation : seed:int -> Table.t
(** A1 — replay work under increasingly heavy-tailed delays (late
    messages): full replay vs undo/redo repair. *)

val convergence_sweep : seed:int -> Table.t
(** A2 — convergence lag of the universal set across delay models and a
    partition scenario. *)

val sessions : seed:int -> Table.t
(** S1 — client sessions over the replica service ({!Clients}): without
    faults, with a crash forcing fail-over, and with a crash under a
    slow mesh where the fail-over visibly rolls the session back. The
    client histories stay update consistent throughout; pipelined
    (session) consistency is what fail-over sacrifices. *)

val divergence_distribution : seed:int -> string
(** A3 — the distribution of convergence lag over 200 independent runs
    under exponential delays: summary statistics and a histogram. The
    unbounded-but-finite inconsistency window is what "eventual" means
    quantitatively. *)

val all : ?markdown:bool -> seed:int -> unit -> (string * string * (unit -> string)) list
(** [(experiment id, title, render)] for every experiment, in DESIGN.md
    order — the generator behind EXPERIMENTS.md and [bench_output.txt].
    Only the experiments whose [render] is called run. [markdown]
    renders GitHub tables instead of ASCII boxes. *)
