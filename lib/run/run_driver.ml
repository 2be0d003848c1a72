open Run_spec

let ( let* ) = Result.bind

type outputs = {
  check : bool;
  trace : bool;
  obs : bool;
  trace_out : string option;
  registry_out : string option;
  span_dump : bool;
  journal_out : string option;
  series_out : string option;
}

let quiet =
  {
    check = false;
    trace = false;
    obs = false;
    trace_out = None;
    registry_out = None;
    span_dump = false;
    journal_out = None;
    series_out = None;
  }

(* ------------------------------------------------------------------ *)
(* Protocol table                                                      *)
(* ------------------------------------------------------------------ *)

(* One protocol bound to one run: the module the runner drives, the
   workload and final read the description generates, the script codec
   of a shrinkable protocol, and the report lines only this protocol
   knows (read after the run). *)
module type INSTANCE = sig
  include Protocol.PROTOCOL

  val workload : (update, query) Workload.t
  val final_read : query
  val print_op : ((update, query) Protocol.invocation -> string) option
  val notes : unit -> string list
end

type entry = {
  name : string;
  doc : string;
  needs_fifo : bool;
  make :
    sim ->
    Obs.t option ->
    Obs.Series.sampler option ->
    ((module INSTANCE), string) result;
}

type notes = unit -> string list

(* What a description generates for one object type. *)
type ('u, 'q) obj = {
  workload : sim -> (('u, 'q) Workload.t, string) result;
  final_read : sim -> 'q;
  print_op : (('u, 'q) Protocol.invocation -> string) option;
}

(* A generated workload: a pure function of the seed and the sizes. *)
let generated ?print_op final_read gen =
  let workload (s : sim) =
    match s.scripts with
    | Some _ when print_op = None ->
      Error (Printf.sprintf "protocol %s takes no explicit scripts" s.protocol)
    | _ -> gen (Prng.create s.seed) s
  in
  { workload; final_read; print_op }

(* The set workload: the explicit printed scripts when the description
   carries them (a minimized journal), the conflict workload otherwise. *)
let set_obj =
  generated ~print_op:Workload.For_set.print_op (fun _ -> Set_spec.Read)
    (fun rng s ->
      let parse tok =
        match Workload.For_set.parse_op tok with
        | Some op -> op
        | None -> raise_notrace (Invalid_argument tok)
      in
      match s.scripts with
      | None ->
        Ok
          (Workload.For_set.conflict ~rng ~n:s.n ~ops_per_process:s.ops
             ~domain:16 ~skew:1.0 ~delete_ratio:0.3)
      | Some printed when List.length printed <> s.n ->
        Error
          (Printf.sprintf "%d explicit scripts for n=%d processes"
             (List.length printed) s.n)
      | Some printed -> (
        match Array.of_list (List.map (List.map parse) printed) with
        | w -> Ok w
        | exception Invalid_argument tok ->
          Error (Printf.sprintf "bad script op %S" tok)))

let counter_obj =
  generated (fun _ -> Counter_spec.Value) (fun rng s ->
      Ok
        (Workload.For_counter.deposits_and_withdrawals ~rng ~n:s.n
           ~ops_per_process:s.ops ~max_amount:100))

let register_obj =
  let module G = Workload.Make (Register_spec) in
  generated (fun _ -> Register_spec.Read) (fun rng s ->
      Ok (G.mixed ~rng ~n:s.n ~ops_per_process:s.ops ~query_ratio:0.4))

let memory_obj =
  generated (fun _ -> Memory_spec.Read 0) (fun rng s ->
      Ok
        (Workload.For_memory.random_writes ~rng ~n:s.n ~ops_per_process:s.ops
           ~registers:8 ~read_ratio:0.4))

(* Any registered object: one query in four, the rest updates. *)
let uniform_obj (type u q)
    (module A : Uqadt.S with type update = u and type query = q) =
  generated
    (fun s -> A.random_query (Prng.create s.seed))
    (fun rng s ->
      Ok
        (Array.init s.n (fun _ ->
             List.init s.ops (fun _ ->
                 if Prng.int rng 4 = 0 then
                   Protocol.Invoke_query (A.random_query rng)
                 else Protocol.Invoke_update (A.random_update rng)))))

let instance (type u q o)
    (module P : Protocol.PROTOCOL
      with type update = u
       and type query = q
       and type output = o) ~notes (obj : (u, q) obj) s :
    ((module INSTANCE), string) result =
  let* workload = obj.workload s in
  Ok
    (module struct
      include P

      let workload = workload
      let final_read = obj.final_read s
      let print_op = obj.print_op
      let notes = notes
    end : INSTANCE)

let entry (type u q o) ?(needs_fifo = false) name doc (obj : (u, q) obj)
    (proto :
      sim ->
      (module Protocol.PROTOCOL
         with type update = u
          and type query = q
          and type output = o)
      * notes) =
  let make s _ _ =
    let p, notes = proto s in
    instance p ~notes obj s
  in
  { name; doc; needs_fifo; make }

let plain (type u q o)
    (p :
      (module Protocol.PROTOCOL
         with type update = u
          and type query = q
          and type output = o)) _ =
  (p, fun () -> [])

(* Algorithm 1 over the Oplog core, wrapped in {!Persist.Catchup} so a
   joining or rejoining replica really absorbs a donor snapshot.
   Instantiated per run, so a --checkpoint-interval override stays
   with its run. *)
let universal (type u q o)
    (module A : Uqadt.S
      with type update = u
       and type query = q
       and type output = o)
    (module C : Update_codec.S with type update = u) (s : sim) :
    (module Protocol.PROTOCOL
       with type update = u
        and type query = q
        and type output = o)
    * notes =
  let module G = Generic.Make (A) in
  Option.iter (fun k -> G.checkpoint_interval := k) s.checkpoint_interval;
  ( (module Persist.Catchup (G) (C)),
    fun () ->
      [
        Printf.sprintf "log core           array (checkpoint interval %d)"
          !G.checkpoint_interval;
      ] )

(* The sharded object space on the set: one Algorithm 1 core per shard
   behind a consistent-hash ring, fed a Zipf-skewed multi-key stream.
   --shards 1 degenerates to a single core holding every key;
   --rebalance arms the hot-shard split policy. *)
let sharded (s : sim) obs sampler =
  let module S = Space.Make (Set_spec) (Update_codec.For_set) in
  let policy =
    Option.map
      (fun interval ->
        (* 1.5 keeps the trigger reachable at small shard counts: with
           two shards the hottest can never exceed 2x the mean, so a
           factor of 2 would never fire. *)
        { S.interval; hot_factor = 1.5; max_shards = 64 })
      s.rebalance
  in
  let map = S.create_map ?policy ?obs ~shards:s.shards () in
  S.configure map;
  (* Soak runs also watch the ring: cumulative and per-tick op rates
     for every shard, so a hot-shard split shows up in the series. *)
  Option.iter
    (fun smp -> Obs.Series.add_probe smp (S.series_probe map))
    sampler;
  let elem = Zipf.create ~n:16 ~s:1.0 in
  let update g =
    let v = Zipf.sample elem g in
    if Prng.float g 1.0 < 0.3 then Set_spec.Delete v else Set_spec.Insert v
  in
  let obj =
    generated (fun _ -> S.K.Sweep) (fun rng s ->
        Ok
          (Workload.For_space.zipf_scripts ~rng ~n:s.n ~ops_per_process:s.ops
             ~keys:s.keys ~skew:1.1 ~fanout:3 ~query_ratio:0.25 ~update
             ~query:(fun _ -> Set_spec.Read)
             ~read:(fun k q -> S.K.Read (k, q))))
  in
  let notes () =
    [
      Printf.sprintf
        "shards             %d initial, %d final (%d rebalances, %d entries \
         re-homed)"
        s.shards
        (Ring.shards (S.ring map))
        (S.rebalances map) (S.moved_entries map);
      "shard ops          "
      ^ String.concat " "
          (List.map
             (fun (sh, ops) -> Printf.sprintf "s%d:%d" sh ops)
             (S.shard_ops map));
    ]
  in
  instance (module S) ~notes obj s

let table =
  List.map
    (fun (name, (module A : Registry.SPEC)) ->
      entry ("universal-" ^ name)
        ("Algorithm 1 on the " ^ name ^ " object")
        (uniform_obj (module A))
        (universal (module A) (module A.Codec)))
    Registry.all_specs
  @ [
      entry "universal" "Algorithm 1 on the set" set_obj
        (universal (module Set_spec) (module Update_codec.For_set));
      entry "memo" "Algorithm 1 + snapshot cache, set" set_obj
        (plain (module Memo.Make (Set_spec)));
      entry ~needs_fifo:true "gc"
        "Algorithm 1 + stability GC, set (needs --fifo)" set_obj
        (plain (module Gc.Make (Set_spec)));
      entry "undo" "undo-based construction, set" set_obj
        (plain (module Undo.Make (Undoable.Set)));
      entry "pipelined" "naive FIFO apply-on-receive, set" set_obj
        (plain (module Pipelined.Make (Set_spec)));
      entry "orset" "OR-set CRDT" set_obj (plain (module Orset_crdt));
      entry "2pset" "two-phase set CRDT" set_obj
        (plain (module Twopset_crdt.Protocol_impl));
      entry "lwwset" "LWW-element-set CRDT" set_obj
        (plain (module Lwwset_crdt));
      entry "pnset" "counting set CRDT" set_obj (plain (module Pnset_crdt));
      entry "counter" "Algorithm 1 on the counter" counter_obj
        (universal (module Counter_spec) (module Update_codec.For_counter));
      entry "fastcounter" "CRDT fast path counter" counter_obj
        (plain (module Commutative.Make (Counter_spec)));
      entry "pncounter" "PN-counter CRDT" counter_obj
        (plain (module Counters.Pncounter));
      entry "register" "Algorithm 1 on the register" register_obj
        (universal (module Register_spec) (module Update_codec.For_register));
      entry "lwwreg" "LWW-register CRDT" register_obj
        (plain (module Registers.Lwwreg));
      entry "abd" "ABD linearizable register (baseline)" register_obj
        (plain (module Abd));
      entry "lwwmemory" "Algorithm 2 shared memory" memory_obj
        (plain (module Lww_memory));
      {
        name = "sharded";
        doc =
          "Algorithm 1 per shard behind a consistent-hash ring, set \
           (--shards/--keys/--rebalance)";
        needs_fifo = false;
        make = sharded;
      };
    ]

let protocols = List.map (fun e -> (e.name, e.doc)) table
let names = List.map fst protocols

let validate (s : sim) =
  match List.find_opt (fun e -> e.name = s.protocol) table with
  | None -> Error (Printf.sprintf "unknown protocol %S" s.protocol)
  | Some e when e.needs_fifo && not s.fifo ->
    Error
      (Printf.sprintf "protocol %s needs FIFO channels (--fifo)" s.protocol)
  | Some e -> Ok e

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let write_json file json =
  let oc = open_out file in
  output_string oc (Obs.Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc

(* One line per requested criterion, naming the first violating event's
   journal index and span id — the index `replay --until` accepts. *)
let print_monitor_report ~criteria ~events violations =
  List.iter
    (fun c ->
      let name = Obs.Monitor.criterion_name c in
      match
        List.find_opt (fun v -> v.Obs.Monitor.criterion = c) violations
      with
      | Some v ->
        Format.printf "monitor %-10s %a@." name Obs.Monitor.pp_violation v
      | None -> Printf.printf "monitor %-10s clean (%d events)\n" name events)
    criteria

let emit_obs (s : sim) outputs (o : Obs.t) =
  (* Host-resource gauges, stamped once at dump time rather than
     during the run: their values depend on allocator state, so
     keeping them out of the library layer keeps its goldens stable.
     (Stdlib.Gc — uc_core's Gc module shadows the runtime's here.) *)
  let q = Stdlib.Gc.quick_stat () in
  let gauge name v =
    Obs.Registry.set (Obs.Registry.gauge o.registry name) (float_of_int v)
  in
  gauge "gc_live_words" q.Stdlib.Gc.live_words;
  gauge "gc_major_collections" q.Stdlib.Gc.major_collections;
  gauge "gc_top_heap_words" q.Stdlib.Gc.top_heap_words;
  Option.iter
    (fun file ->
      write_json file
        (Obs.Trace_export.to_json ~meta:(trace_meta s) ~replicas:s.n o.spans);
      Printf.printf "trace written      %s (%d spans)\n" file
        (Obs.Span.count o.spans))
    outputs.trace_out;
  Option.iter
    (fun file ->
      write_json file (Obs.Registry.to_json o.registry);
      Printf.printf "registry written   %s\n" file)
    outputs.registry_out;
  (match (o.journal, outputs.journal_out) with
  | Some j, Some file ->
    let oc = open_out file in
    output_string oc (Obs.Journal.to_jsonl j);
    close_out oc;
    Printf.printf "journal written    %s (%d events)\n" file
      (Obs.Journal.length j)
  | _ -> ());
  if outputs.span_dump then
    Format.printf "%a" Obs.Trace_export.pp_span_dump o.spans;
  (match Obs.divergence_series o with
  | [] -> ()
  | series ->
    Printf.printf "divergence series  %s\n"
      (String.concat " "
         (List.map (fun (t, d) -> Printf.sprintf "%.0f:%d" t d) series)));
  Format.printf "telemetry:@.%a" Obs.Registry.pp o.registry

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

type outcome = { converged : bool; alerts_fired : int }

(* A soak run's sampler feeds the alert rules; a firing is printed,
   journaled (so replay reproduces the alert stream at the same
   indices) and streamed to the series file. Returns the end-of-run
   summary, which yields the number of rules that fired. *)
let arm_soak (s : sim) (k : soak) sampler journal outputs =
  let writer =
    Option.map
      (fun file ->
        let oc = open_out file in
        let w = Obs.Series.writer oc ~meta:(series_meta s k) in
        Obs.Series.set_sink sampler (Obs.Series.write_point w);
        (file, oc, w))
      outputs.series_out
  in
  let alerts = Obs.Alert.create k.rules in
  Obs.Alert.attach alerts sampler
    ~on_fire:(fun { Obs.Alert.time; rule; series; value } ->
      let rule = Obs.Alert.rule_to_string rule in
      Printf.printf "ALERT              %s at t=%g on %s (value %g)\n" rule time
        series value;
      Option.iter
        (fun j ->
          Obs.Journal.record j
            (Obs.Journal.Alert { time; rule; series; value }))
        journal;
      Option.iter
        (fun (_, _, w) -> Obs.Series.write_alert w ~time ~rule ~series ~value)
        writer);
  fun () ->
    Printf.printf "samples            %d ticks, %d series\n"
      (Obs.Series.ticks sampler)
      (List.length (Obs.Series.list (Obs.Series.store sampler)));
    Option.iter
      (fun (file, oc, w) ->
        Obs.Series.close_writer w;
        close_out oc;
        Printf.printf "series written     %s\n" file)
      writer;
    let armed = List.length k.rules in
    match List.length (Obs.Alert.fired alerts) with
    | 0 ->
      Printf.printf "alerts             none fired (%d armed)\n" armed;
      0
    | fired ->
      Printf.printf "alerts             %d fired (of %d armed)\n" fired armed;
      fired

let run ?journal ?(outputs = quiet) (s : sim) =
  let* e = validate s in
  let journal =
    match journal with
    | Some _ -> journal
    | None -> Option.map (fun _ -> Obs.Journal.create ()) outputs.journal_out
  in
  Option.iter (fun j -> Obs.Journal.set_header j (to_header (Sim s))) journal;
  (* Telemetry is on as soon as anything that needs it was requested;
     a soak run's sampler snapshots the registry every tick. *)
  let obs =
    if
      s.soak <> None || journal <> None || s.monitors <> []
      || s.probe_interval <> None || outputs.obs || outputs.trace_out <> None
      || outputs.registry_out <> None || outputs.span_dump
    then Some (Obs.create ?journal ())
    else None
  in
  let sampler =
    match (s.soak, obs) with
    | Some k, Some o ->
      Some
        (Obs.Series.sampler ~interval:k.sample_interval ~registry:o.registry ())
    | _ -> None
  in
  let* (module I) = e.make s obs sampler in
  let module R = Runner.Make (I) in
  let soak_summary =
    match (s.soak, sampler) with
    | Some k, Some smp -> arm_soak s k smp journal outputs
    | _ -> fun () -> 0
  in
  let monitor =
    if s.monitors = [] then None
    else Some (R.Mon.create ~n:s.n ~criteria:s.monitors)
  in
  let base = R.default_config ~n:s.n ~seed:s.seed in
  let config =
    {
      base with
      R.delay = Network.Exponential { mean = s.mean_delay };
      fifo = s.fifo;
      partitions = s.partitions;
      crashes = s.crashes;
      churn = s.churn;
      final_read = Some I.final_read;
      deadline =
        Option.value ~default:base.R.deadline
          (Option.bind s.soak (fun k -> k.duration));
      trace = outputs.trace;
      batch_window = s.batch_window;
      obs;
      probe_interval = s.probe_interval;
      monitor;
      sampler;
    }
  in
  let r = R.run config ~workload:I.workload in
  Option.iter (fun tr -> print_string (Trace.render tr ~n:s.n)) r.R.trace;
  Printf.printf "protocol           %s (object: %s)\n" I.protocol_name I.name;
  List.iter print_endline (I.notes ());
  let m = r.R.metrics in
  Printf.printf
    "messages sent      %d\nbytes sent         %d\nupdates invoked    %d\nqueries invoked    %d\nops incomplete     %d\nreplay steps       %d\n"
    m.Metrics.messages_sent m.Metrics.bytes_sent m.Metrics.updates_invoked
    m.Metrics.queries_invoked m.Metrics.ops_incomplete m.Metrics.replay_steps;
  Printf.printf "converged          %b\n" r.R.converged;
  if List.exists (fun l -> l > 0.0) r.R.op_latencies then begin
    let st = Stats.summarize r.R.op_latencies in
    Printf.printf "op latency         mean=%.2f p99=%.2f\n" st.Stats.mean
      st.Stats.p99
  end;
  List.iter
    (fun (pid, o) -> Format.printf "final read p%d      %a@." pid I.pp_output o)
    r.R.final_outputs;
  if outputs.check then begin
    let module C = Criteria.Make (I) in
    Printf.printf "history UC         %b\nhistory EC         %b\n"
      (C.holds Criteria.UC r.R.history)
      (C.holds Criteria.EC r.R.history)
  end;
  Option.iter
    (fun mon ->
      print_monitor_report ~criteria:s.monitors ~events:(R.Mon.events_seen mon)
        (R.Mon.violations mon))
    monitor;
  Option.iter (emit_obs s outputs) obs;
  let alerts_fired = soak_summary () in
  Ok { converged = r.R.converged; alerts_fired }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

type shrunk = {
  recorded : string;
  minimized : string;
  violation : Obs.Monitor.violation;
  events : int;
  runs : int;
  journal : Obs.Journal.t;
}

let shrink ?max_runs (s : sim) =
  let* e = validate s in
  let* () =
    if s.batch_window <> None || s.probe_interval <> None || s.soak <> None
    then
      Error
        "runs recorded with --batch-window or --probe-interval, or by soak, \
         are not shrinkable (the scenario engine re-executes without them)"
    else Ok ()
  in
  let* (module I) = e.make s None None in
  let* print_op =
    Option.to_result I.print_op
      ~none:
        (Printf.sprintf
           "protocol %S has no scenario engine (set protocols only)" s.protocol)
  in
  let module S = Scenario.Make (I) in
  let scenario =
    {
      S.seed = s.seed;
      n = s.n;
      mean_delay = s.mean_delay;
      fifo = s.fifo;
      scripts = I.workload;
      partitions = s.partitions;
      crashes = s.crashes;
      churn = s.churn;
      final_read = Some I.final_read;
    }
  in
  let criteria =
    if s.monitors = [] then Obs.Monitor.[ Uc; Ec; Pc ] else s.monitors
  in
  match S.shrink ?max_runs ~criteria scenario with
  | None | Some { S.outcome = { S.violation = None; _ }; _ } ->
    Error
      (Printf.sprintf "run is clean — no %s violation to minimize"
         (String.concat "/" (List.map Obs.Monitor.criterion_name criteria)))
  | Some
      {
        S.scenario = m;
        outcome = { S.violation = Some v; journal; events; _ };
        runs;
      } ->
    let minimized =
      {
        s with
        n = m.S.n;
        mean_delay = m.S.mean_delay;
        fifo = m.S.fifo;
        crashes = m.S.crashes;
        partitions = m.S.partitions;
        churn = m.S.churn;
        scripts =
          Some (Array.to_list (Array.map (List.map print_op) m.S.scripts));
        monitors = [ v.Obs.Monitor.criterion ];
      }
    in
    Obs.Journal.set_header journal (to_header (Sim minimized));
    Ok
      {
        recorded = Format.asprintf "%a" S.pp scenario;
        minimized = Format.asprintf "%a" S.pp m;
        violation = v;
        events;
        runs;
        journal;
      }

(* ------------------------------------------------------------------ *)
(* The shared command line                                             *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let seed_arg =
  Arg.(
    value & opt int default.seed
    & info [ "seed" ] ~docv:"SEED" ~doc:"Root random seed.")

let monitors_conv =
  let parse s =
    let parts = List.filter (( <> ) "") (String.split_on_char ',' s) in
    match
      List.find_opt (fun x -> Obs.Monitor.criterion_of_name x = None) parts
    with
    | Some x ->
      Error
        (`Msg (Printf.sprintf "unknown criterion %S (expected uc, ec or pc)" x))
    | None -> Ok (List.filter_map Obs.Monitor.criterion_of_name parts)
  in
  let print ppf cs =
    Format.pp_print_string ppf
      (String.concat "," (List.map Obs.Monitor.criterion_name cs))
  in
  Arg.conv (parse, print)

let partition_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ from_s; to_s; group_s ] -> (
      match (float_of_string_opt from_s, float_of_string_opt to_s) with
      | Some from_time, Some to_time ->
        let members = String.split_on_char ',' group_s in
        let group = List.filter_map int_of_string_opt members in
        if List.length group <> List.length members || group = [] then
          Error (`Msg "partition: group must be a comma-separated pid list")
        else Ok { Network.from_time; to_time; group }
      | _ -> Error (`Msg "partition: FROM and TO must be numbers"))
    | _ -> Error (`Msg "partition: expected FROM:TO:P1,P2,...")
  in
  let print ppf (p : Network.partition) =
    Format.fprintf ppf "%g:%g:%s" p.from_time p.to_time
      (String.concat "," (List.map string_of_int p.group))
  in
  Arg.conv (parse, print)

let churn_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ t_s; action_s; pid_s ] -> (
      match
        ( float_of_string_opt t_s,
          Network.churn_action_of_name action_s,
          int_of_string_opt pid_s )
      with
      | Some time, Some action, Some pid -> Ok { Network.time; pid; action }
      | _ -> Error (`Msg "churn: expected TIME:join|leave|rejoin:PID"))
    | _ -> Error (`Msg "churn: expected TIME:ACTION:PID")
  in
  let print ppf (c : Network.churn_event) =
    Format.fprintf ppf "%g:%s:%d" c.time
      (Network.churn_action_name c.action)
      c.pid
  in
  Arg.conv (parse, print)

let term ?(ops = default.ops) () =
  let d = default in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let opt c name docv default doc =
    Arg.(value & opt c default & info [ name ] ~docv ~doc)
  in
  let opt_num name docv doc = opt Arg.(some float) name docv None doc in
  let file name doc = opt Arg.(some string) name "FILE" None doc in
  let open Term.Syntax in
  let+ protocol =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun n -> (n, n)) names))) None
      & info [] ~docv:"PROTOCOL" ~doc:"One of the names shown by `ucsim list`.")
  and+ seed = seed_arg
  and+ n = opt Arg.int "n" "N" d.n "Processes."
  and+ ops = opt Arg.int "ops" "OPS" ops "Operations per process."
  and+ mean_delay = opt Arg.float "delay" "D" d.mean_delay "Mean message delay."
  and+ fifo = flag "fifo" "FIFO channels."
  and+ crash = flag "crash" "Crash the last process at t=50."
  and+ shards =
    opt Arg.int "shards" "S" d.shards
      "Initial shard count for the $(b,sharded) protocol: one Algorithm 1 \
       core per shard behind a consistent-hash ring. 1 (the default) keeps \
       every key in a single core."
  and+ keys =
    opt Arg.int "keys" "K" d.keys
      "Key domain of the sharded workload (Zipf-skewed; key 0 is the \
       hottest)."
  and+ rebalance =
    opt_num "rebalance" "DT"
      "Arm the hot-shard policy: every $(docv) simulated time units, split \
       the hottest shard when its op rate exceeds 1.5x the per-shard mean \
       (sharded protocol only)."
  and+ checkpoint_interval =
    opt Arg.(some int) "checkpoint-interval" "K" None
      "Record an oplog state checkpoint every K entries (Algorithm 1 \
       protocols; 0 disables checkpointing)."
  and+ batch_window =
    opt_num "batch-window" "W"
      "Buffer each process's broadcasts and flush them as one frame per \
       destination $(docv) time units after the window opens."
  and+ probe_interval =
    opt_num "probe-interval" "DT"
      "Sample every live replica's state fingerprint at most every $(docv) \
       simulated time units, recording the divergence series and feeding \
       visibility-latency accounting (implies --obs)."
  and+ monitors =
    opt monitors_conv "monitor" "CRITERIA" []
      "Comma-separated consistency criteria (uc, ec, pc) to check online as \
       the run progresses; the first violating event is reported with its \
       journal index and span id (implies --obs)."
  and+ partitions =
    Arg.(
      value
      & opt_all partition_conv []
      & info [ "partition" ] ~docv:"FROM:TO:PIDS"
          ~doc:
            "Isolate the comma-separated pid group from everyone else between \
             simulated times FROM and TO (messages are delayed, not lost; the \
             partition heals at TO). Repeatable.")
  and+ churn =
    Arg.(
      value & opt_all churn_conv []
      & info [ "churn" ] ~docv:"TIME:ACTION:PID"
          ~doc:
            "Membership change at simulated time TIME: $(b,leave) detaches the \
             replica (its script parks, frames to and from it drop), \
             $(b,rejoin) re-attaches it with its crash-time state, and \
             $(b,join) declares a process that starts the run absent and \
             joins fresh — joiners and rejoiners catch up from a present \
             peer's snapshot when the protocol supports one. Repeatable.")
  and+ check =
    flag "check"
      "Run the UC/EC checkers on the extracted history (small runs only)."
  and+ trace = flag "trace" "Print a space-time trace of the run."
  and+ obs =
    flag "obs"
      "Enable the telemetry layer: per-replica metric registry, causal span \
       tracing, replay-cost profiles. Off by default; runs without it are \
       bit-identical to the uninstrumented simulator."
  and+ trace_out =
    file "trace-out"
      "Write the span trace as Chrome/Perfetto trace-event JSON to $(docv) \
       (implies --obs). Load it in ui.perfetto.dev."
  and+ registry_out =
    file "registry-out"
      "Write the metric registry dump as JSON to $(docv) (implies --obs). \
       Render it later with `ucsim report`."
  and+ span_dump =
    flag "span-dump" "Print the compact per-span dump (implies --obs)."
  and+ journal_out =
    file "journal-out"
      "Record every invocation, wire frame, delivery, fault and probe into a \
       self-describing JSONL event journal at $(docv), sealed with the run's \
       history fingerprint (implies --obs). Re-execute it with `ucsim \
       replay`."
  in
  ( {
      protocol;
      seed;
      n;
      ops;
      mean_delay;
      fifo;
      crashes = (if crash then [ (50.0, n - 1) ] else []);
      checkpoint_interval;
      batch_window;
      probe_interval;
      monitors;
      partitions;
      churn;
      scripts = None;
      shards;
      keys;
      rebalance;
      soak = None;
    },
    {
      check;
      trace;
      obs;
      trace_out;
      registry_out;
      span_dump;
      journal_out;
      series_out = None;
    } )
