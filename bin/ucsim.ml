(* ucsim — command-line driver for the update-consistency reproduction.

   Subcommands:
     figures      print the Figure 1 matrix and the Figure 2 analysis
     experiments  run the experiment suite (all or by id)
     run          simulate one protocol on a generated workload
     replay       re-execute a journaled run and verify it reproduces it
     diff         first structural divergence between two journals
     modelcheck   exhaustively check a protocol on a small script
     storm        flash-crowd open-loop load with SLO verdicts
     shrink       minimize a monitor-flagged journal to a smallest one
     soak         long-horizon run with streaming series and alert rules
     report       render a registry dump, or series sparklines (--series)
     nemesis      randomized crash and partition campaign
     bench        multicore engine run with the Proposition 4 differential
     classify     classify a hand-written set history
     list         show available protocols and experiments

   The run description, its journal-header codec, the protocol table
   and the sequential driver live in lib/run ({!Run_spec},
   {!Run_driver}); the subcommands here parse flags and print. *)

open Cmdliner

module type SET_PROTOCOL =
  Protocol.PROTOCOL
    with type update = Set_spec.update
     and type query = Set_spec.query
     and type output = Set_spec.output

module Uni_set_core = Generic.Make (Set_spec)
module Uni_set = Persist.Catchup (Uni_set_core) (Update_codec.For_set)
module Uni_counter_core = Generic.Make (Counter_spec)
module Uni_counter = Persist.Catchup (Uni_counter_core) (Update_codec.For_counter)

(* A valued flag with a default, and a boolean flag. *)
let opt_arg c name docv default doc =
  Arg.(value & opt c default & info [ name ] ~docv ~doc)

let flag_arg name doc = Arg.(value & flag & info [ name ] ~doc)
let seed_arg = Run_driver.seed_arg

(* The positional protocol name among [protocols], universal by default. *)
let protocol_arg protocols =
  let names = List.map (fun (n, _) -> (n, n)) protocols in
  Arg.(value & pos 0 (enum names) "universal" & info [] ~docv:"PROTOCOL")

let fail cmd msg =
  Printf.eprintf "%s: %s\n" cmd msg;
  exit 1

let read_file file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file file contents =
  let oc = open_out file in
  output_string oc contents;
  close_out oc

(* Parse a journal file, dying with a one-line diagnostic on anything
   malformed or truncated — same contract as `report`. *)
let load_journal ~cmd file =
  match Obs.Journal.of_jsonl (read_file file) with
  | exception (Obs.Journal.Parse_error msg | Failure msg) ->
    fail cmd (file ^ ": " ^ msg)
  | j -> j

let spec_of_journal ~cmd file recorded =
  match Run_spec.of_header (Obs.Journal.header recorded) with
  | Error msg -> fail cmd (file ^ ": " ^ msg)
  | Ok spec -> spec

let figures_cmd =
  let doc = "Print the Figure 1 classification matrix and the Figure 2 analysis." in
  let run () =
    print_string (Table.render (Experiments.fig1 ()));
    print_newline ();
    print_string (Experiments.fig2 ())
  in
  Cmd.v (Cmd.info "figures" ~doc) Term.(const run $ const ())

let experiments_cmd =
  let doc = "Run the experiment suite (DESIGN.md ids; default: all)." in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids, e.g. C2 C4.")
  in
  let markdown_arg = flag_arg "markdown" "Render GitHub-flavoured tables." in
  let run seed markdown ids =
    let wanted = List.map String.uppercase_ascii ids in
    List.iter
      (fun (id, title, body) ->
        if wanted = [] || List.mem (String.uppercase_ascii id) wanted then
          if markdown then
            Printf.printf "## %s — %s\n\n%s\n" id title (body ())
          else Printf.printf "== %s: %s ==\n%s\n" id title (body ()))
      (Experiments.all ~markdown ~seed ())
  in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const run $ seed_arg $ markdown_arg $ ids)

let run_cmd =
  let doc = "Simulate one protocol on a generated conflict workload." in
  let run (spec, outputs) =
    match Run_driver.run ~outputs spec with
    | Error msg -> fail "run" msg
    | Ok _ -> ()
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ Run_driver.term ())

let soak_cmd =
  let doc =
    "Long-horizon soak run: stream time-series telemetry — registry \
     snapshots, per-replica log and checkpoint gauges, engine queue depth, \
     per-shard op rates, sliding-window latency percentiles — on a \
     simulated-time cadence, evaluate declarative alert rules over the \
     series each tick, and exit non-zero if any rule fires. Takes every \
     `ucsim run` flag."
  in
  let duration_arg =
    opt_arg Arg.(some float) "duration" "T" None
      "Hard horizon in simulated time: the run stops at $(docv) even \
       with script left (the default horizon is the runner's 1e7 \
       deadline)."
  in
  let sample_interval_arg =
    opt_arg Arg.float "sample-interval" "DT" 50.0
      "Simulated time between samples. Samples piggyback on existing \
       deliveries and completions — the sampler never schedules engine \
       events, so the schedule is identical with or without it."
  in
  let series_out_arg =
    opt_arg Arg.(some string) "series-out" "FILE" None
      "Stream every sample (full resolution) and alert firing as JSONL \
       to $(docv); render it later with `ucsim report --series`."
  in
  let rule_conv =
    let parse s =
      match Obs.Alert.rule_of_string s with
      | r -> Ok r
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    let print ppf r = Format.pp_print_string ppf (Obs.Alert.rule_to_string r) in
    Arg.conv (parse, print)
  in
  let rules_arg =
    Arg.(
      value
      & opt_all rule_conv []
      & info [ "rule" ] ~docv:"RULE"
          ~doc:
            "Alert rule over the sampled series: $(b,above:SERIES:V), \
             $(b,below:SERIES:V), $(b,growth:SERIES:K) (the last K retained \
             points strictly increasing — the unbounded-growth detector), or \
             $(b,slo:SERIES:TARGET). A rule addresses every labeled series \
             of that name, fires at most once, and is journaled as an Alert \
             event. Repeatable.")
  in
  let run (spec, outputs) duration sample_interval series_out rules =
    let soak = Some { Run_spec.sample_interval; duration; rules } in
    let spec = { spec with Run_spec.soak } in
    let outputs = { outputs with Run_driver.series_out } in
    match Run_driver.run ~outputs spec with
    | Error msg -> fail "soak" msg
    | Ok o -> if o.Run_driver.alerts_fired > 0 then exit 1
  in
  Cmd.v (Cmd.info "soak" ~doc)
    Term.(
      const run $ Run_driver.term ~ops:500 () $ duration_arg
      $ sample_interval_arg $ series_out_arg $ rules_arg)

let modelcheck_cmd =
  let doc =
    "Model-check a protocol: exhaustively by default, with partial-order \
     reduction, state deduplication, checkpointed replay and parallel domains \
     on request."
  in
  let which =
    let choices =
      [
        ("universal", `Universal);
        ("pipelined", `Pipelined);
        ("orset", `Orset);
        ("counter", `Counter);
      ]
    in
    Arg.(value & pos 0 (enum choices) `Universal & info [] ~docv:"PROTOCOL")
  in
  let por_arg = flag_arg "por" "Enable sleep-set partial-order reduction." in
  let dedup_arg =
    flag_arg "dedup"
      "Enable state fingerprinting (universal and counter only — needs a \
       replica snapshot)."
  in
  let domains_arg =
    opt_arg Arg.int "domains" "D" 1
      "Explore first-level branches over D domains."
  in
  let checkpoint_arg =
    opt_arg Arg.int "checkpoint" "K" 4
      "Snapshot protocol state every K events for O(K) backtracking (0 \
       disables; universal and counter only)."
  in
  let crashes_arg =
    opt_arg Arg.int "max-crashes" "C" 0 "Also explore up to C process crashes."
  in
  let limit_arg =
    opt_arg Arg.int "limit" "L" 200_000 "Cap on complete executions."
  in
  let n_arg = opt_arg Arg.int "n" "N" 2 "Processes (counter protocol only)." in
  let ops_arg =
    opt_arg Arg.int "ops" "OPS" 2
      "Increments per process (counter protocol only)."
  in
  let checkpoint_interval_arg =
    opt_arg Arg.(some int) "checkpoint-interval" "K" None
      "Oplog state-checkpoint cadence inside the replicas (universal and \
       counter; distinct from --checkpoint, which snapshots whole replicas \
       for explorer backtracking)."
  in
  let run which por dedup domains checkpoint max_crashes limit n ops
      checkpoint_interval =
    let race =
      [|
        [ Protocol.Invoke_update (Set_spec.Insert 1); Protocol.Invoke_update (Set_spec.Delete 2) ];
        [ Protocol.Invoke_update (Set_spec.Insert 2); Protocol.Invoke_update (Set_spec.Delete 1) ];
      |]
    in
    let print_report name executions exhaustive failures distinct firsts
        (st : Explore.stats) =
      Printf.printf "protocol       %s\nschedules      %d (exhaustive: %b)\n" name
        executions exhaustive;
      Printf.printf
        "states         explored %d, pruned(por) %d, deduped %d\nreplay         %d protocol steps, %d checkpoint restores\n"
        st.Explore.states_explored st.Explore.states_pruned_por
        st.Explore.states_deduped st.Explore.protocol_steps
        st.Explore.checkpoint_restores;
      List.iter
        (fun (c, k) ->
          Printf.printf "%-4s fails    %d (distinct histories: %d)\n"
            (Criteria.name c) k
            (try List.assoc c distinct with Not_found -> 0))
        failures;
      List.iter
        (fun (c, text) ->
          Printf.printf "first %s violation:\n%s\n" (Criteria.name c) text)
        firsts
    in
    let core interval =
      Printf.sprintf "log core: array (checkpoint interval %d)" interval
    in
    let checkpoint_every = if checkpoint > 0 then checkpoint else 4 in
    let snapshotting = checkpoint > 0 || dedup in
    let explore_set name (module P : SET_PROTOCOL) =
      if dedup then
        fail "modelcheck"
          "--dedup needs a replica snapshot (universal/counter only)";
      let module M = Model_check.Make (P) in
      let r =
        M.explore ~limit ~max_crashes ~por ~domains ~scripts:race
          ~final_read:Set_spec.Read ()
      in
      print_report name r.M.executions r.M.exhaustive r.M.failures
        r.M.distinct_failures r.M.first_failures r.M.stats
    in
    match which with
    | `Universal ->
      Option.iter
        (fun k -> Uni_set_core.checkpoint_interval := k)
        checkpoint_interval;
      let module M = Model_check.Make (Uni_set) in
      let module S = Snapshot.For_generic (Set_spec) (Update_codec.For_set) in
      let snapshot = if snapshotting then Some S.snapshotter else None in
      let r =
        M.explore ~limit ~max_crashes ~por ~dedup ~checkpoint_every ?snapshot
          ~deliveries_commute:S.deliveries_commute ~domains ~scripts:race
          ~final_read:Set_spec.Read ()
      in
      print_report
        (Printf.sprintf "universal [%s]"
           (core !Uni_set_core.checkpoint_interval))
        r.M.executions r.M.exhaustive r.M.failures r.M.distinct_failures
        r.M.first_failures r.M.stats
    | `Pipelined -> explore_set "pipelined" (module Pipelined.Make (Set_spec))
    | `Orset -> explore_set "or-set" (module Orset_crdt)
    | `Counter ->
      Option.iter
        (fun k -> Uni_counter_core.checkpoint_interval := k)
        checkpoint_interval;
      let scripts =
        Array.init n (fun pid ->
            List.init ops (fun i ->
                Protocol.Invoke_update (Counter_spec.Add ((pid * ops) + i + 1))))
      in
      let module M = Model_check.Make (Uni_counter) in
      let module S =
        Snapshot.For_replica (Counter_spec) (Update_codec.For_counter)
          (Uni_counter)
      in
      let snapshot = if snapshotting then Some S.snapshotter else None in
      let state_key = if dedup then Some S.commutative_key else None in
      let message_key =
        if dedup then Some S.commutative_message_key else None
      in
      let r =
        M.explore ~limit ~max_crashes ~por ~dedup ~checkpoint_every ?snapshot
          ?state_key ?message_key ~deliveries_commute:S.deliveries_commute
          ~domains ~scripts ~final_read:Counter_spec.Value ()
      in
      print_report
        (Printf.sprintf "universal counter (n=%d, ops=%d) [%s]" n ops
           (core !Uni_counter_core.checkpoint_interval))
        r.M.executions r.M.exhaustive r.M.failures r.M.distinct_failures
        r.M.first_failures r.M.stats
  in
  Cmd.v (Cmd.info "modelcheck" ~doc)
    Term.(
      const run $ which $ por_arg $ dedup_arg $ domains_arg $ checkpoint_arg
      $ crashes_arg $ limit_arg $ n_arg $ ops_arg $ checkpoint_interval_arg)

let nemesis_cmd =
  let doc = "Run a randomized fault campaign (crashes + healing partitions)." in
  (* each protocol, and whether its channels must be FIFO *)
  let protocols : (string * ((module SET_PROTOCOL) * bool)) list =
    [
      ("universal", ((module Uni_set), false));
      ("memo", ((module Memo.Make (Set_spec)), false));
      ("gc", ((module Gc.Make (Set_spec)), true));
      ("undo", ((module Undo.Make (Undoable.Set)), false));
      ("orset", ((module Orset_crdt), false));
      ("pipelined", ((module Pipelined.Make (Set_spec)), false));
    ]
  in
  let which = protocol_arg protocols in
  let runs_arg = opt_arg Arg.int "runs" "N" 50 "Campaign size." in
  let set_workload rng ~n ~ops =
    Workload.For_set.conflict ~rng ~n ~ops_per_process:ops ~domain:8 ~skew:1.0
      ~delete_ratio:0.35
  in
  let run which seed runs =
    let (module P : SET_PROTOCOL), fifo = List.assoc which protocols in
    let module N = Nemesis.Make (P) in
    let campaign = { N.default_campaign with N.runs; fifo; base_seed = seed } in
    let v = N.run campaign ~workload:set_workload ~final_read:Set_spec.Read in
    Printf.printf
      "protocol %s: %d runs, %d crashes (budget %d/run%s), %d partitions\nconvergence failures       %d\nstalled operations         %d\ncertificate disagreements  %d\nverdict                    %s\n"
      P.protocol_name v.N.runs v.N.crashes_injected v.N.crash_cap
      (if v.N.capped_runs > 0 then
         Printf.sprintf ", clamped below the request in %d runs" v.N.capped_runs
       else "")
      v.N.partitions_injected v.N.convergence_failures v.N.stalled_operations
      v.N.certificate_disagreements
      (if N.clean v then "CLEAN" else "FAULTY");
    if v.N.failing_seeds <> [] then
      Printf.printf "failing seeds: %s\n"
        (String.concat ", " (List.map string_of_int v.N.failing_seeds))
  in
  Cmd.v (Cmd.info "nemesis" ~doc) Term.(const run $ which $ seed_arg $ runs_arg)

let storm_cmd =
  let doc =
    "Drive a flash crowd at a replicated set: open-loop arrivals (warm-up, \
     spike, cool-down) on top of the closed-loop clients, with per-operation \
     latency judged against an SLO target."
  in
  let protocols : (string * (module SET_PROTOCOL)) list =
    [
      ("universal", (module Uni_set));
      ("memo", (module Memo.Make (Set_spec)));
      ("orset", (module Orset_crdt));
      ("pipelined", (module Pipelined.Make (Set_spec)));
      ("lwwset", (module Lwwset_crdt));
    ]
  in
  let which = protocol_arg protocols in
  let n_arg = opt_arg Arg.int "n" "N" 3 "Replicas." in
  let clients_arg = opt_arg Arg.int "clients" "C" 6 "Closed-loop clients." in
  let ops_arg =
    opt_arg Arg.int "ops" "OPS" 20 "Closed-loop operations per client."
  in
  let delay_arg =
    opt_arg Arg.float "delay" "D" 10.0
      "Mean replica-mesh message delay."
  in
  let base_arg =
    opt_arg Arg.float "base" "R" 0.2
      "Background arrival rate (operations per time unit)."
  in
  let peak_arg =
    opt_arg Arg.float "peak" "R" 4.0
      "Arrival rate during the spike."
  in
  let warm_arg =
    opt_arg Arg.float "warm" "T" 60.0
      "Warm-up duration at the base rate."
  in
  let spike_arg =
    opt_arg Arg.float "spike" "T" 40.0
      "Spike duration at the peak rate."
  in
  let cool_arg =
    opt_arg Arg.float "cool" "T" 60.0
      "Cool-down duration at the base rate."
  in
  let slo_arg =
    opt_arg Arg.float "slo" "L" 40.0
      "Latency target: the SLO is met when the open-loop p99 is at or under \
       $(docv) simulated time units."
  in
  let query_ratio_arg =
    opt_arg Arg.float "query-ratio" "Q" 0.25
      "Fraction of open-loop arrivals that are reads."
  in
  let registry_out_arg =
    opt_arg Arg.(some string) "registry-out" "FILE" None
      "Write the metric registry (including the open-loop latency \
       histogram) as JSON to $(docv)."
  in
  let run which seed n clients ops delay base peak warm spike cool slo
      query_ratio registry_out =
    let (module P : SET_PROTOCOL) = List.assoc which protocols in
    let module C = Clients.Make (P) in
    let rng = Prng.create seed in
    let workload =
      Workload.For_set.conflict ~rng ~n:clients ~ops_per_process:ops
        ~domain:16 ~skew:1.0 ~delete_ratio:0.3
    in
    let obs = if registry_out <> None then Some (Obs.create ()) else None in
    let plan = Workload.Flash_crowd.plan ~base ~peak ~warm ~spike ~cool in
    let config =
      {
        (C.default_config ~n_replicas:n ~n_clients:clients ~seed) with
        C.replica_delay = Network.Exponential { mean = delay };
        final_read = Some Set_spec.Read;
        open_loop =
          Some
            {
              C.plan;
              mix =
                (let one =
                   Workload.Flash_crowd.set_mix ~domain:16 ~skew:1.0
                     ~delete_ratio:0.3 ~query_ratio
                 in
                 fun g -> [ one g ]);
            };
        obs;
      }
    in
    let r = C.run config ~workload in
    Printf.printf "protocol           %s (object: set)\n" P.protocol_name;
    Printf.printf "replicas/clients   %d/%d\n" n clients;
    Printf.printf "arrival plan       %s\n"
      (String.concat " | "
         (List.map
            (fun (ph : Clients.phase) ->
              Printf.sprintf "%g/t for %g" ph.Clients.rate ph.Clients.duration)
            plan));
    Printf.printf "closed loop        %d completed, %d retried, %d failovers\n"
      r.C.ops_completed r.C.ops_abandoned r.C.failovers;
    Printf.printf "open loop          %d completed, %d abandoned\n"
      r.C.open_completed r.C.open_abandoned;
    Printf.printf "converged          %b\n" r.C.converged;
    (match r.C.open_latencies with
    | [] -> print_endline "open-loop SLO      no arrivals"
    | ls ->
      Format.printf "open-loop SLO      %a@." Stats.pp_slo
        (Stats.slo ~target:slo ls));
    match (obs, registry_out) with
    | Some o, Some file ->
      Obs.finalize o ~live:[];
      write_file file
        (Obs.Json.to_string ~pretty:true (Obs.Registry.to_json o.Obs.registry)
        ^ "\n");
      Printf.printf "registry written   %s\n" file
    | _ -> ()
  in
  Cmd.v (Cmd.info "storm" ~doc)
    Term.(
      const run $ which $ seed_arg $ n_arg $ clients_arg $ ops_arg $ delay_arg
      $ base_arg $ peak_arg $ warm_arg $ spike_arg $ cool_arg $ slo_arg
      $ query_ratio_arg $ registry_out_arg)

let shrink_cmd =
  let doc =
    "Minimize a monitor-flagged journaled run (from `run --journal-out`) to \
     a smallest scenario that still violates the same criterion, and write \
     the minimized journal — itself replayable with `ucsim replay`."
  in
  let in_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "journal-in" ] ~docv:"FILE" ~doc:"Journal of the flagged run.")
  in
  let out_arg =
    opt_arg Arg.(some string) "journal-out" "FILE" None
      "Write the minimized violating journal to $(docv)."
  in
  let max_runs_arg =
    opt_arg Arg.int "max-runs" "N" 400
      "Re-execution budget for the greedy descent."
  in
  let run file out max_runs =
    let recorded = load_journal ~cmd:"shrink" file in
    let spec =
      match spec_of_journal ~cmd:"shrink" file recorded with
      | Run_spec.Sim s -> s
      | Run_spec.Parallel _ ->
        fail "shrink" (file ^ ": multicore journals are not shrinkable")
    in
    match Run_driver.shrink ~max_runs spec with
    | Error msg -> fail "shrink" msg
    | Ok s ->
      Printf.printf "scenario           %s\n" s.Run_driver.recorded;
      Format.printf "violation          %a@." Obs.Monitor.pp_violation
        s.violation;
      Printf.printf "minimized          %d -> %d events (%d re-executions)\n"
        (Obs.Journal.length recorded) s.events s.runs;
      Printf.printf "scenario (min)     %s\n" s.minimized;
      Option.iter
        (fun out_file ->
          write_file out_file (Obs.Journal.to_jsonl s.journal);
          Printf.printf "journal written    %s (%d events)\n" out_file s.events)
        out
  in
  Cmd.v (Cmd.info "shrink" ~doc) Term.(const run $ in_arg $ out_arg $ max_runs_arg)

let classify_cmd =
  let doc =
    "Classify a hand-written set history against every consistency criterion."
  in
  let history_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HISTORY"
          ~doc:
            (Printf.sprintf
               "Events I(v), D(v), R{…} (append w for an ω read); processes \
                separated by '/'. Example: \"%s\"."
               Parse_history.example))
  in
  let witnesses_arg =
    flag_arg "witness" "Also print the UC/PC witnesses found."
  in
  let run text witnesses =
    match Parse_history.parse text with
    | exception Parse_history.Parse_error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 1
    | h ->
      Format.printf "%a"
        (History.pp Set_spec.pp_update Set_spec.pp_query Set_spec.pp_output)
        h;
      let module C = Criteria.Make (Set_spec) in
      List.iter
        (fun (c, ok) ->
          Printf.printf "  %-5s %s\n" (Criteria.name c) (if ok then "yes" else "no"))
        (C.classify h);
      if witnesses then begin
        let module Uc = Check_uc.Make (Set_spec) in
        (match Uc.witness h with
        | Some updates ->
          Format.printf "UC linearization: %a@."
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.fprintf ppf " · ")
               Set_spec.pp_update)
            updates
        | None -> ());
        let module Pc = Check_pc.Make (Set_spec) in
        match Pc.witness h with
        | Some ws ->
          Array.iteri
            (fun p w ->
              Format.printf "PC word for p%d: " p;
              List.iter
                (fun (e : _ History.event) ->
                  Format.printf "%a·"
                    (Uqadt.pp_operation Set_spec.pp_update Set_spec.pp_query
                       Set_spec.pp_output)
                    e.History.label)
                w;
              Format.printf "@.")
            ws
        | None -> ()
      end
  in
  Cmd.v (Cmd.info "classify" ~doc) Term.(const run $ history_arg $ witnesses_arg)

let report_cmd =
  let doc =
    "Render one or more telemetry registry dumps (from `run \
     --registry-out`) as a single merged table, or, with $(b,--series), a \
     soak series stream (from `soak --series-out`) as sparklines."
  in
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Registry dump JSON file(s) — several are merged into one table \
             (counters add, gauges take the max, histograms combine on \
             their buckets) — or exactly one series JSONL file with \
             $(b,--series).")
  in
  let json_arg =
    flag_arg "json"
      "Re-emit the (merged) dump as canonical (sorted, pretty) JSON \
       instead of a table (registry dumps only)."
  in
  let series_arg =
    flag_arg "series"
      "Treat FILE as a soak series stream: render one sparkline with \
       min/max/last per series, then any fired alerts."
  in
  let run files json series =
    if series then begin
      match files with
      | [ file ] -> (
        match Obs.Series.load file with
        | exception Failure msg -> fail "report" msg
        | loaded -> Format.printf "%a" Obs.Series.render loaded)
      | _ -> fail "report" "--series takes exactly one file"
    end
    else begin
      let load file =
        match
          Obs.Registry.rows_of_json (Obs.Json.of_string (read_file file))
        with
        | exception Obs.Json.Parse_error msg ->
          fail "report" (Printf.sprintf "%s is not JSON: %s" file msg)
        | exception Failure msg -> fail "report" (file ^ ": " ^ msg)
        | rows -> rows
      in
      match Obs.Registry.merge_rows (List.map load files) with
      | exception Failure msg -> fail "report" msg
      | rows ->
        if json then
          print_endline
            (Obs.Json.to_string ~pretty:true (Obs.Registry.rows_to_json rows))
        else Format.printf "%a" Obs.Registry.pp_rows rows
    end
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ files_arg $ json_arg $ series_arg)

(* What a multicore description runs: the contended set workload when
   zipf > 0, uniform scripts over the registry object otherwise. The
   scripts are pure functions of the description, which is how a
   flight-recorder journal replays from its header. *)
module type BENCHED = sig
  module A : Uqadt.S

  val scripts : (A.update, A.query) Protocol.invocation list array
  val final_read : A.query
end

let benched (p : Run_spec.parallel) : (module BENCHED) option =
  if p.spec = "set" && p.zipf > 0.0 then
    Some
      (module struct
        module A = Set_spec

        let scripts =
          Throughput.set_zipf_scripts ~seed:p.seed ~domains:p.domains
            ~ops:p.ops ~skew:p.zipf ~delete_ratio:0.3

        let final_read = Set_spec.Read
      end)
  else
    Option.map
      (fun packed ->
        let module A = (val packed : Uqadt.S) in
        let module B = Throughput.Bench (A) in
        (module struct
          module A = A

          let scripts =
            B.uniform_scripts ~seed:p.seed ~domains:p.domains ~ops:p.ops
              ~query_ratio:p.query_ratio

          let final_read = A.random_query (Prng.create p.seed)
        end : BENCHED))
      (Registry.find p.spec)

let check_until recorded k =
  if k < 0 || k >= Obs.Journal.length recorded then
    fail "replay"
      (Printf.sprintf "--until %d out of range (journal has %d events)" k
         (Obs.Journal.length recorded));
  Format.printf "replay OK through event %d@.event %d          %a@." k k
    Obs.Journal.pp_event (Obs.Journal.event recorded k)

let replay_ok recorded fp =
  Printf.printf "replay OK          %d events, fingerprint %s\n"
    (Obs.Journal.length recorded)
    fp

(* Replay a flight-recorder journal (from `bench --journal-out`): the
   recorded per-replica delivery order is re-executed on the sequential
   core — fingerprint equality is Proposition 4 checked end to end.
   Always a full replay; --until then prints the named event. *)
let replay_parallel ~file recorded until (p : Run_spec.parallel) =
  Printf.printf
    "replaying          parallel %s (seed %d, %d domains, %d events recorded)\n"
    p.spec p.seed p.domains
    (Obs.Journal.length recorded);
  match benched p with
  | None -> fail "replay" (Printf.sprintf "%s: unknown spec %S" file p.spec)
  | Some (module X) -> (
    let module B = Throughput.Bench (X.A) in
    match
      B.replay_journal ~scripts:X.scripts ~final_read:X.final_read recorded
    with
    | Error msg ->
      Printf.printf "replay FAILED: %s\n" msg;
      exit 1
    | Ok fp -> (
      match until with
      | None -> replay_ok recorded fp
      | Some k -> check_until recorded k))

let replay_cmd =
  let doc =
    "Re-execute a journaled run (from `run --journal-out` or `bench \
     --journal-out`) and verify it reproduces the recorded schedule and \
     history fingerprint, bisecting to the first diverging event on \
     mismatch."
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Event journal (JSONL) to replay.")
  in
  let until_arg =
    opt_arg Arg.(some int) "until" "K" None
      "Verify the prefix up to event index $(docv) only and print that \
       event — the index an online monitor names in a violation."
  in
  let run file until =
    let recorded = load_journal ~cmd:"replay" file in
    match spec_of_journal ~cmd:"replay" file recorded with
    | Run_spec.Parallel p -> replay_parallel ~file recorded until p
    | Run_spec.Sim spec -> (
      let capture = Obs.Journal.create () in
      Printf.printf "replaying          %s (seed %d, %d events recorded)\n"
        spec.protocol spec.seed
        (Obs.Journal.length recorded);
      (match Run_driver.run ~journal:capture spec with
      | Error msg -> fail "replay" (file ^ ": " ^ msg)
      | Ok _ -> ());
      (match Obs.Journal.diff recorded capture with
      | Some (i, a, b)
        when match until with None -> true | Some k -> i <= k ->
        Printf.printf
          "replay DIVERGED at event %d\n  recorded: %s\n  replayed: %s\n" i a b;
        exit 1
      | _ -> ());
      let show = Option.value ~default:"(none)" in
      match until with
      | Some k -> check_until recorded k
      | None ->
        let fp_rec = Obs.Journal.fingerprint recorded in
        let fp_new = Obs.Journal.fingerprint capture in
        if fp_rec <> fp_new then begin
          Printf.printf
            "replay FAILED: fingerprint mismatch (recorded %s, replayed %s)\n"
            (show fp_rec) (show fp_new);
          exit 1
        end;
        replay_ok recorded (show fp_rec))
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ file_arg $ until_arg)

let diff_cmd =
  let doc =
    "Print the first structural divergence between two event journals (or \
     report them identical)."
  in
  let file_a =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"A" ~doc:"First journal.")
  in
  let file_b =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"B" ~doc:"Second journal.")
  in
  let run fa fb =
    let a = load_journal ~cmd:"diff" fa in
    let b = load_journal ~cmd:"diff" fb in
    match Obs.Journal.diff a b with
    | Some (i, ea, eb) ->
      Printf.printf "first divergence at event %d\n  %s: %s\n  %s: %s\n" i fa ea
        fb eb;
      exit 1
    | None ->
      let pa = Obs.Journal.fingerprint a and pb = Obs.Journal.fingerprint b in
      if pa <> pb then begin
        let show = function Some s -> s | None -> "(none)" in
        Printf.printf
          "events identical but fingerprints differ (%s vs %s)\n" (show pa)
          (show pb);
        exit 1
      end;
      Printf.printf "journals identical (%d events, fingerprint %s)\n"
        (Obs.Journal.length a)
        (match pa with Some s -> s | None -> "(none)")
  in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const run $ file_a $ file_b)

let clip s = if String.length s <= 96 then s else String.sub s 0 93 ^ "..."

(* The one verdict printer for every `ucsim bench` run: the row, the
   sharded columns when there are any, then each differential clause
   that ran. *)
let print_bench (r : Throughput.row) ~state ~clauses =
  Printf.printf "spec               %s\n" r.Throughput.spec;
  Option.iter
    (fun (s : Throughput.sharding) ->
      Printf.printf "shards             %d (static ring)\n" s.Throughput.shards;
      Printf.printf "keys / skew / fan  %d / %.2f / %d\n" s.Throughput.keys
        s.Throughput.skew s.Throughput.fanout)
    r.Throughput.sharding;
  Printf.printf "domains            %d (machine recommends %d)\n"
    r.Throughput.domains
    (Domain.recommended_domain_count ());
  Printf.printf "ops                %d total, %d per domain\n"
    r.Throughput.total_ops r.Throughput.ops_per_domain;
  Printf.printf "updates            %d%s\n" r.Throughput.updates
    (if r.Throughput.sharding = None then "" else " keyed sub-updates");
  Printf.printf "wall               %.4f s\n" r.Throughput.wall_s;
  Printf.printf "throughput         %.0f ops/sec\n" r.Throughput.ops_per_sec;
  Printf.printf "latency p50 / p99  %.2f / %.2f us\n" r.Throughput.p50_us
    r.Throughput.p99_us;
  Printf.printf "mailbox depth max  %d (stalls %d)\n"
    r.Throughput.mailbox_max_depth r.Throughput.mailbox_stalls;
  Option.iter
    (fun (s : Throughput.sharding) ->
      Printf.printf "shard log spread   min %d / max %d\n"
        s.Throughput.shard_log_min s.Throughput.shard_log_max)
    r.Throughput.sharding;
  Printf.printf "converged state    %s\n" (clip state);
  List.iter
    (fun (k, ok) -> Printf.printf "  %-22s %b\n" k ok)
    clauses

(* One bench execution with optional flight recording. The recorder is
   attached iff any of --journal-out / --series-out / --monitor was
   given; the journal header is the run's {!Run_spec.parallel}
   description, everything `ucsim replay` needs to regenerate the
   scripts. *)
let bench_exec (p : Run_spec.parallel) (module X : BENCHED) ~obs ~journal_out
    ~series_out ~monitors ~sample_interval =
  let module B = Throughput.Bench (X.A) in
  let recording = journal_out <> None || series_out <> None || monitors <> [] in
  let recorder =
    if recording then Some (Obs.Recorder.create ~domains:p.domains ()) else None
  in
  let header = Run_spec.to_header (Parallel p) in
  let v =
    B.measure ~mailbox_capacity:p.mailbox ~batch_every:p.batch
      ~flush_window:p.flush_window ?obs ?recorder
      ?monitor:(if monitors = [] then None else Some monitors)
      ?journal_header:(if recording then Some header else None)
      ~domains:p.domains ~final_read:X.final_read ~scripts:X.scripts ()
  in
  let r =
    B.row ~batch:p.batch ~flush_window:p.flush_window ~ops_per_domain:p.ops v
  in
  print_bench r ~state:v.B.state_repr ~clauses:v.B.clauses;
  (match v.B.recording with
  | None -> ()
  | Some rc -> (
    (match rc.B.replay with
    | Ok fp ->
      Printf.printf "flight recorder    %d events, fingerprint %s\n"
        (Obs.Journal.length rc.B.journal) fp
    | Error msg -> Printf.printf "flight recorder    REPLAY FAILED: %s\n" msg);
    Option.iter
      (fun file ->
        write_file file (Obs.Journal.to_jsonl rc.B.journal);
        Printf.printf "journal written    %s (%d events)\n" file
          (Obs.Journal.length rc.B.journal))
      journal_out;
    Option.iter
      (fun file ->
        let oc = open_out file in
        let w = Obs.Series.writer oc ~meta:header in
        let store =
          Throughput.series_of_events ~interval:sample_interval
            ~sink:(Obs.Series.write_point w) rc.B.events
        in
        Obs.Series.close_writer w;
        close_out oc;
        Printf.printf "series written     %s (%d series)\n" file
          (List.length (Obs.Series.list store)))
      series_out;
    match rc.B.monitor with
    | None -> ()
    | Some mon ->
      Run_driver.print_monitor_report ~criteria:monitors
        ~events:(B.Mon.events_seen mon) (B.Mon.violations mon)));
  r

let bench_cmd =
  let doc =
    "Run the multicore replica engine: one domain per replica executing the \
     universal construction, bounded MPSC mailboxes in between, and the \
     Proposition 4 parallel-vs-sequential differential as the verdict. With \
     any of $(b,--journal-out), $(b,--series-out) or $(b,--monitor) the run \
     is flight-recorded: per-domain lock-free event capture, merged into a \
     replayable journal, checked by a sixth differential clause (sequential \
     re-execution of the recorded delivery order) and fed to the online \
     consistency monitors."
  in
  let spec_arg =
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) Registry.names)) "counter"
      & info [ "spec" ] ~docv:"SPEC"
          ~doc:"Object to bench (see `ucsim list` objects).")
  in
  let domains_arg =
    opt_arg Arg.int "domains" "N" 4 "Replica domains to spawn."
  in
  let ops_arg =
    opt_arg Arg.int "ops" "OPS" 10_000 "Closed-loop operations per domain."
  in
  let zipf_arg =
    opt_arg Arg.float "zipf" "S" 0.0
      "Zipf skew for the contended set workload (set spec only; 0 = \
       uniform random updates)."
  in
  let query_ratio_arg =
    opt_arg Arg.float "query-ratio" "R" 0.0
      "Fraction of invocations that are queries."
  in
  let shards_arg =
    opt_arg Arg.int "shards" "S" 1
      "Run the sharded object space (set spec) over $(docv) shards on a \
       static consistent-hash ring, with the shard-aware per-shard \
       differential as the verdict. 1 (the default) benches the \
       single-object protocols."
  in
  let keys_arg =
    opt_arg Arg.int "keys" "K" 1024
      "Key domain of the sharded workload (with --shards > 1)."
  in
  let fanout_arg =
    opt_arg Arg.int "fanout" "W" 3
      "Maximum keys per update batch in the sharded workload (with \
       --shards > 1)."
  in
  let mailbox_arg =
    opt_arg Arg.int "mailbox" "CAP" 1024 "Mailbox capacity (frames)."
  in
  let batch_arg =
    opt_arg Arg.int "batch" "K" 1 "Broadcast every K local updates."
  in
  let flush_window_arg =
    opt_arg Arg.int "flush-window" "W" 0
      "Force-flush the per-destination send buffers every $(docv) local \
       invocations, bounding how long a coalesced message can wait for \
       its buffer to reach the --batch threshold (0 = no window; \
       flushes happen only on the threshold and at script end)."
  in
  let json_arg =
    opt_arg Arg.(some string) "json" "FILE" None "Also write the row as JSON."
  in
  let obs_arg = flag_arg "obs" "Print per-domain telemetry rows." in
  let journal_out_arg =
    opt_arg Arg.(some string) "journal-out" "FILE" None
      "Flight-record the run and write the merged per-domain event \
       stream as a replayable journal (re-execute with `ucsim \
       replay`)."
  in
  let series_out_arg =
    opt_arg Arg.(some string) "series-out" "FILE" None
      "Flight-record the run and stream wall-clock per-domain time \
       series (JSONL; render with `ucsim report --series`)."
  in
  let monitor_arg =
    opt_arg Run_driver.monitors_conv "monitor" "CRITERIA" []
      "Comma-separated consistency criteria (uc, ec, pc) checked \
       online over the merged flight-recorder stream; the first \
       violating event is reported with its journal index. (pc \
       explores the cross-process interleaving automaton — \
       exponential in concurrent updates, so keep --ops small.)"
  in
  let sample_interval_arg =
    opt_arg Arg.float "sample-interval" "DT" 0.01
      "Wall-clock series sampling cadence in seconds."
  in
  let run spec domains ops zipf seed query_ratio shards keys fanout mailbox
      batch flush_window json obs_flag journal_out series_out monitors
      sample_interval =
    let obs = if obs_flag then Some (Obs.create ()) else None in
    if
      shards > 1
      && (journal_out <> None || series_out <> None || monitors <> [])
    then
      fail "bench"
        "the flight recorder targets the one-core-per-domain engine; \
         --shards > 1 cannot be combined with --journal-out, --series-out \
         or --monitor";
    let ok =
      if shards > 1 then begin
        (* The sharded space runs the set spec; per-shard Prop 4 verdict. *)
        let module B = Throughput.Space_bench (Set_spec) (Update_codec.For_set) in
        let skew = if zipf > 0.0 then zipf else 1.1 in
        let scripts =
          B.zipf_scripts ~seed ~domains ~ops ~keys ~skew ~fanout ~query_ratio
        in
        let v =
          B.measure ~mailbox_capacity:mailbox ~batch_every:batch ~flush_window
            ?obs ~shards ~domains ~scripts ()
        in
        let r =
          B.row ~batch ~flush_window ~ops_per_domain:ops ~shards ~keys ~skew
            ~fanout v
        in
        print_bench r ~state:v.B.state_repr ~clauses:v.B.clauses;
        Option.iter (fun path -> Throughput.emit_json path [ r ]) json;
        r.Throughput.ok
      end
      else begin
        (* zipf shapes only the set workload; elsewhere it is recorded as 0 *)
        let zipf = if spec = "set" then zipf else 0.0 in
        let p =
          {
            Run_spec.spec;
            seed;
            domains;
            ops;
            query_ratio;
            zipf;
            batch;
            flush_window;
            mailbox;
          }
        in
        let row =
          match benched p with
          | None -> assert false (* the enum converter validated the spec *)
          | Some x ->
            bench_exec p x ~obs ~journal_out ~series_out ~monitors
              ~sample_interval
        in
        Option.iter (fun path -> Throughput.emit_json path [ row ]) json;
        row.Throughput.ok
      end
    in
    Printf.printf "differential       %s\n" (if ok then "PASS" else "FAIL");
    Option.iter
      (fun o ->
        Obs.finalize o ~live:[];
        Format.printf "telemetry:@.%a@." Obs.Registry.pp o.Obs.registry)
      obs;
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ spec_arg $ domains_arg $ ops_arg $ zipf_arg $ seed_arg
      $ query_ratio_arg $ shards_arg $ keys_arg $ fanout_arg $ mailbox_arg
      $ batch_arg $ flush_window_arg $ json_arg $ obs_arg $ journal_out_arg
      $ series_out_arg $ monitor_arg $ sample_interval_arg)

let list_cmd =
  let doc = "List protocols and experiments." in
  let run () =
    Printf.printf "protocols:\n";
    List.iter
      (fun (name, desc) -> Printf.printf "  %-12s %s\n" name desc)
      Run_driver.protocols;
    Printf.printf "experiments: %s\n"
      (String.concat " "
         (List.map (fun (id, _, _) -> id) (Experiments.all ~seed:0 ())));
    Printf.printf "objects:     %s\n" (String.concat " " Registry.names)
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let () =
  let doc = "Update consistency for wait-free concurrent objects — reproduction driver." in
  let info = Cmd.info "ucsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figures_cmd;
            experiments_cmd;
            run_cmd;
            replay_cmd;
            diff_cmd;
            modelcheck_cmd;
            nemesis_cmd;
            storm_cmd;
            shrink_cmd;
            soak_cmd;
            bench_cmd;
            classify_cmd;
            report_cmd;
            list_cmd;
          ]))
