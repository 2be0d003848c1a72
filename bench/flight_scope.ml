(* Flight-recorder overhead scenario (EXPERIMENTS C11).

   Runs the same fixed workload through the multicore engine in three
   telemetry configurations:

     off       — obs = None, recorder = None (the seed hot path)
     metrics   — per-domain registry shards attached (obs = Some)
     recorder  — full flight recorder + sharded metrics + the online
                 UC/EC monitors over the merged stream

   and reports aggregate ops/sec per cell so the cost of each layer is
   visible as a ratio against `off`. Every cell is still a full
   [Throughput] differential run, and the recorder cells additionally
   carry differential clause 6: the recorded journal must re-execute on
   the sequential core to the identical history fingerprint.

   The verdict of this scope is correctness, not speed: overhead
   ratios are hardware- and scheduler-dependent (a single-core
   container serialises the domains and flatters the recorder), so the
   exit code reflects only the differential — including the replay
   clause and the monitors staying clean. The table is written to
   BENCH_flight.json; `--smoke` shrinks domains and ops (CI budget). *)

module T_counter = Throughput.Bench (Counter_spec)
module T_set = Throughput.Bench (Set_spec)

type config = Off | Metrics | Recorder

let config_name = function
  | Off -> "off"
  | Metrics -> "metrics"
  | Recorder -> "recorder"

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let domains = if smoke then 2 else 4 in
  let ops = if smoke then 1_000 else 10_000 in
  let seed = 42 in
  let failures = ref [] in
  let monitors_dirty = ref [] in
  (* [ok] includes clause 6, the journal replay, on recorder cells. *)
  let cell spec config v ~ops_per_domain ~row_of ~ok ~monitor_clean =
    let name = Printf.sprintf "%s/%s" spec (config_name config) in
    if not (ok v) then failures := name :: !failures;
    (match monitor_clean v with
    | Some false -> monitors_dirty := name :: !monitors_dirty
    | Some true | None -> ());
    let r = row_of ~ops_per_domain v in
    { r with Throughput.spec = name }
  in
  let counter_cell config =
    let scripts =
      T_counter.uniform_scripts ~seed ~domains ~ops ~query_ratio:0.0
    in
    let obs = match config with Off -> None | _ -> Some (Obs.create ()) in
    let recorder =
      match config with
      | Recorder -> Some (Obs.Recorder.create ~domains ())
      | _ -> None
    in
    let monitor =
      match config with
      | Recorder -> Some [ Obs.Monitor.Uc; Obs.Monitor.Ec ]
      | _ -> None
    in
    cell "counter" config
      (T_counter.measure ?obs ?recorder ?monitor ~domains
         ~final_read:Counter_spec.Value ~scripts ())
      ~ops_per_domain:ops
      ~row_of:(fun ~ops_per_domain v -> T_counter.row ~ops_per_domain v)
      ~ok:T_counter.ok
      ~monitor_clean:(fun v ->
        Option.bind v.T_counter.recording (fun r ->
            Option.map T_counter.Mon.clean r.T_counter.monitor))
  in
  let set_cell config =
    let scripts =
      Throughput.set_zipf_scripts ~seed ~domains ~ops:(ops / 2) ~skew:1.0
        ~delete_ratio:0.3
    in
    let obs = match config with Off -> None | _ -> Some (Obs.create ()) in
    let recorder =
      match config with
      | Recorder -> Some (Obs.Recorder.create ~domains ())
      | _ -> None
    in
    let monitor =
      match config with
      | Recorder -> Some [ Obs.Monitor.Uc; Obs.Monitor.Ec ]
      | _ -> None
    in
    cell "set" config
      (T_set.measure ?obs ?recorder ?monitor ~domains ~final_read:Set_spec.Read
         ~scripts ())
      ~ops_per_domain:(ops / 2)
      ~row_of:(fun ~ops_per_domain v -> T_set.row ~ops_per_domain v)
      ~ok:T_set.ok
      ~monitor_clean:(fun v ->
        Option.bind v.T_set.recording (fun r ->
            Option.map T_set.Mon.clean r.T_set.monitor))
  in
  let configs = [ Off; Metrics; Recorder ] in
  let rows =
    List.map counter_cell configs @ List.map set_cell configs
  in
  Printf.printf "%-18s %8s %10s %14s %10s %9s %6s\n" "spec/config" "domains"
    "ops" "ops/sec" "p99 us" "overhead" "ok";
  let baseline spec =
    List.find_opt
      (fun (r : Throughput.row) -> r.Throughput.spec = spec ^ "/off")
      rows
  in
  List.iter
    (fun (r : Throughput.row) ->
      let base =
        baseline (List.hd (String.split_on_char '/' r.Throughput.spec))
      in
      let overhead =
        match base with
        | Some b when b.Throughput.ops_per_sec > 0.0 ->
          Printf.sprintf "%+.1f%%"
            (100.0
            *. ((b.Throughput.ops_per_sec /. r.Throughput.ops_per_sec) -. 1.0))
        | _ -> "-"
      in
      Printf.printf "%-18s %8d %10d %14.0f %10.2f %9s %6b\n" r.Throughput.spec
        r.Throughput.domains r.Throughput.total_ops r.Throughput.ops_per_sec
        r.Throughput.p99_us overhead r.Throughput.ok)
    rows;
  Throughput.emit_json "BENCH_flight.json" rows;
  print_endline "wrote BENCH_flight.json";
  (match !monitors_dirty with
  | [] -> ()
  | specs ->
    Printf.printf "FAIL: online monitors flagged a violation in: %s\n"
      (String.concat ", " (List.rev specs)));
  match (!failures, !monitors_dirty) with
  | [], [] ->
    print_endline
      "differential: every cell converged and every recording replayed (PASS)"
  | specs, _ ->
    if specs <> [] then
      Printf.printf "FAIL: differential mismatch in: %s\n"
        (String.concat ", " (List.rev specs));
    exit 1
