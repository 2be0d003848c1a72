(* Sharded object space scaling scenario (experiment C9).

   Sweeps the shard count over {1, 2, 4, 8} crossed with Zipf skew
   {0.5, 1.1} running the set space on the multicore engine: multi-key
   update batches (fanout up to 3) over a 1024-key domain, routed
   through a static consistent-hash ring, one Algorithm 1 core per
   shard. Every cell is a full shard-aware Proposition 4 differential
   ([Throughput.Space_bench]): per-shard logs pairwise equal across
   replicas, ω sweeps equal to the keyed timestamp fold, the UCX
   snapshot/absorb restore agreeing, and keyed sub-updates conserved.

   As with the throughput scope, the verdict is correctness, not
   speed: ops/sec is hardware-dependent, while the per-shard log
   spread makes the skew visible (high skew piles entries onto the
   shard owning key 0). The table is written to BENCH_shard.json;
   `--smoke` restricts the sweep to shards in {1, 8} at one skew (CI
   budget). *)

module B = Throughput.Space_bench (Set_spec) (Update_codec.For_set)

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let shard_counts =
    if smoke then [ 1; 8 ] else [ 1; 2; 4; 8 ]
  in
  let skews = if smoke then [ 1.1 ] else [ 0.5; 1.1 ] in
  let domains = if smoke then 2 else 4 in
  let ops = if smoke then 1_000 else 5_000 in
  let keys = 1024 in
  let fanout = 3 in
  let seed = 42 in
  let failures = ref [] in
  let rows =
    List.concat_map
      (fun shards ->
        List.map
          (fun skew ->
            let scripts =
              B.zipf_scripts ~seed ~domains ~ops ~keys ~skew ~fanout
                ~query_ratio:0.1
            in
            let v = B.measure ~shards ~domains ~scripts () in
            let r = B.row ~ops_per_domain:ops ~shards ~keys ~skew ~fanout v in
            if not r.Throughput.ok then
              failures := Printf.sprintf "shards=%d skew=%g" shards skew
                          :: !failures;
            r)
          skews)
      shard_counts
  in
  Printf.printf "%-10s %6s %8s %6s %12s %14s %10s %10s %6s\n" "spec" "shards"
    "skew" "keys" "keyed-ops" "ops/sec" "log min" "log max" "ok";
  List.iter
    (fun (r : Throughput.row) ->
      Option.iter
        (fun (s : Throughput.sharding) ->
          Printf.printf "%-10s %6d %8.2f %6d %12d %14.0f %10d %10d %6b\n"
            r.Throughput.spec s.Throughput.shards s.Throughput.skew
            s.Throughput.keys r.Throughput.updates r.Throughput.ops_per_sec
            s.Throughput.shard_log_min s.Throughput.shard_log_max
            r.Throughput.ok)
        r.Throughput.sharding)
    rows;
  Throughput.emit_json "BENCH_shard.json" rows;
  print_endline "wrote BENCH_shard.json";
  match !failures with
  | [] ->
    print_endline
      "differential: every cell converged per shard to the keyed fold (PASS)"
  | cells ->
    Printf.printf "FAIL: shard-aware differential mismatch in: %s\n"
      (String.concat ", " (List.rev cells));
    exit 1
