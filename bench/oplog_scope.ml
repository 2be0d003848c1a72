(* Op-log substrate scaling scenario.

   Sweeps the replica log length over 2^6 .. 2^14 for three cores of the
   universal construction on the set object:

     list        the seed's cons-list core (O(n) ordered insert, full
                 replay per query)
     array       the array-backed oplog, checkpoints disabled (O(log n)
                 locate + blit insert, full replay per query)
     array+ckpt  the oplog with interval checkpoints every 32 entries
                 (warm queries replay at most one interval)

   For each (core, size) cell it measures the amortised insert cost
   (building the whole log, divided by its length) and the steady-state
   query cost, checks that all three cores answer the final read
   identically, and writes the table to BENCH_oplog.json.

   A second table isolates [Oplog.insert] itself: a 6,000-entry log
   with checkpoints every 32 entries (warm, so 187 are live) takes 2,000
   inserts that each land exactly [shift] entries before the tail, for
   shift 0 (append), 256 and 4,096, and reports ns and minor-heap words
   per insert (median of 5 runs). The log's capacity already covers the
   inserts, so the words column is the insert path's own allocation.

   At size 512 the sweep enforces the refactor's acceptance criterion:
   the checkpointed oplog core must answer queries at least 5x faster
   than the seed list core. `--smoke` restricts the sweep to the sizes
   up to 1024 (CI budget); the criterion is checked either way.

   `--obs` attaches a telemetry bundle — each core gets a replica
   profile (pid 0/1/2) whose oplog counters are dumped at the end. The
   measurements and the PASS/FAIL verdict are computed exactly as
   without it. *)

let obs =
  if Array.exists (( = ) "--obs") Sys.argv then Some (Obs.create ()) else None

let dummy_ctx ~pid ~n : _ Protocol.ctx =
  { (Throughput.dummy_ctx ~pid ~n) with obs = Option.map (fun o -> Obs.replica o pid) obs }

module L = Generic_ref.Make (Set_spec)

(* Two runtime instances of the array-core functor so each keeps its own
   [checkpoint_interval] cell. *)
module A0 = Generic.Make (Set_spec)
module A32 = Generic.Make (Set_spec)

let () = A0.checkpoint_interval := 0
let () = A32.checkpoint_interval := 32

type cell = {
  core : string;
  size : int;
  insert_ns : float;  (* amortised, per inserted update *)
  query_ns : float;  (* steady state, per query *)
  output : Set_spec.output;
}

let measure (type t)
    (module P : Generic.S
      with type update = Set_spec.update
       and type query = Set_spec.query
       and type output = Set_spec.output
       and type t = t) ~core ~pid ~size =
  let rng = Prng.create 99 in
  let r = P.create (dummy_ctx ~pid ~n:3) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to size do
    P.update r (Set_spec.random_update rng) ~on_done:ignore
  done;
  let build = Unix.gettimeofday () -. t0 in
  (* One untimed query warms the checkpoint cache where there is one;
     the timed loop then sees the steady state every replica reaches
     after its first read. *)
  let out = ref Set_spec.initial in
  P.query r Set_spec.Read ~on_result:(fun o -> out := o);
  let reps = max 100 (1_000_000 / size) in
  let t1 = Unix.gettimeofday () in
  for _ = 1 to reps do
    P.query r Set_spec.Read ~on_result:(fun o ->
        ignore (Sys.opaque_identity o))
  done;
  let queries = Unix.gettimeofday () -. t1 in
  {
    core;
    size;
    insert_ns = build *. 1e9 /. float_of_int size;
    query_ns = queries *. 1e9 /. float_of_int reps;
    output = !out;
  }

let sweep sizes =
  List.concat_map
    (fun size ->
      let cells =
        [
          measure (module L) ~core:"list" ~pid:0 ~size;
          measure (module A0) ~core:"array" ~pid:1 ~size;
          measure (module A32) ~core:"array+ckpt" ~pid:2 ~size;
        ]
      in
      (match cells with
      | ref_cell :: rest ->
        List.iter
          (fun c ->
            if not (Set_spec.equal_output c.output ref_cell.output) then begin
              Printf.printf "FAIL: %s and %s disagree at size %d\n" ref_cell.core
                c.core size;
              exit 1
            end)
          rest
      | [] -> ());
      cells)
    sizes

type mid_row = { shift : int; mid_ns : float; words : float }

let mid_size = 6000

let mid_inserts = 2000

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let measure_mid ~shift =
  let run () =
    let log = Oplog.create ~checkpoint_interval:32 ~query_cache:true () in
    for i = 1 to mid_size do
      ignore
        (Oplog.insert log
           { Oplog.ts = Timestamp.make ~clock:(10 * i) ~pid:0;
             origin = 0;
             payload = Set_spec.Insert i;
           })
    done;
    ignore (Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial);
    (* (T, j) for j = 1, 2, ... sorts after the resident (T, 0) at
       position [mid_size - shift - 1] and after every earlier (T, _),
       so each insert lands [shift] entries before the tail. *)
    let clock = 10 * (mid_size - shift) in
    let late =
      Array.init mid_inserts (fun j ->
          { Oplog.ts = Timestamp.make ~clock ~pid:(j + 1);
            origin = 1;
            payload = Set_spec.Insert (-j);
          })
    in
    let w0 = Stdlib.Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for j = 0 to mid_inserts - 1 do
      ignore (Sys.opaque_identity (Oplog.insert log late.(j)))
    done;
    let elapsed = Unix.gettimeofday () -. t0 in
    let words = Stdlib.Gc.minor_words () -. w0 in
    let per = float_of_int mid_inserts in
    (elapsed *. 1e9 /. per, words /. per)
  in
  let runs = List.init 5 (fun _ -> run ()) in
  { shift; mid_ns = median (List.map fst runs); words = median (List.map snd runs) }

let emit_json path cells mids =
  let oc = open_out path in
  let rows =
    List.map
      (fun c ->
        Printf.sprintf
          "  {\"core\": %S, \"size\": %d, \"insert_ns_per_op\": %.1f, \
           \"query_ns_per_op\": %.1f}"
          c.core c.size c.insert_ns c.query_ns)
      cells
    @ List.map
        (fun m ->
          Printf.sprintf
            "  {\"row\": \"mid-insert\", \"core\": \"array+ckpt\", \"size\": %d, \
             \"shift\": %d, \"insert_ns_per_op\": %.1f, \
             \"minor_words_per_insert\": %.2f}"
            mid_size m.shift m.mid_ns m.words)
        mids
  in
  output_string oc ("[\n" ^ String.concat ",\n" rows ^ "\n]\n");
  close_out oc

(* `--monitor` row: per-event cost of the online uc/ec/pc checkers on a
   fixed PC-consistent schedule (round-robin updates, a read every 8th
   op per process, one ω read each at the end — answered from the
   fed-order state so every monitor stays busy to the last event
   instead of stopping at an early violation). Reported alongside the
   sweep; the verdict line is computed exactly as without it. *)
let monitor_bench () =
  let module M = Obs.Monitor.Make (Set_spec) in
  let n = 3 and per = 32 in
  let rng = Prng.create 7 in
  let state = ref Set_spec.initial in
  let feed = ref [] in
  for i = 0 to per - 1 do
    for p = 0 to n - 1 do
      let u = Set_spec.random_update rng in
      state := Set_spec.apply !state u;
      feed := `U (p, u) :: !feed;
      if i mod 8 = 7 then
        feed := `Q (p, Set_spec.Read, Set_spec.eval !state Set_spec.Read) :: !feed
    done
  done;
  for p = 0 to n - 1 do
    feed := `Qw (p, Set_spec.Read, Set_spec.eval !state Set_spec.Read) :: !feed
  done;
  let feed = List.rev !feed in
  let events = List.length feed in
  let run () =
    let m = M.create ~n ~criteria:[ Obs.Monitor.Uc; Obs.Monitor.Ec; Obs.Monitor.Pc ] in
    List.iteri
      (fun i ev ->
        match ev with
        | `U (pid, u) -> M.on_update m ~pid ~index:i ~span:None u
        | `Q (pid, q, o) -> M.on_query m ~pid ~index:i ~span:None ~omega:false q o
        | `Qw (pid, q, o) -> M.on_query m ~pid ~index:i ~span:None ~omega:true q o)
      feed;
    m
  in
  let warm = run () in
  if not (M.clean warm) then begin
    print_endline "FAIL: monitor flagged the PC-consistent bench schedule";
    exit 1
  end;
  let reps = 20 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (run ()))
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "%-12s %8d %16s %16.1f   (uc,ec,pc online; work %d steps)\n"
    "monitor" events "-"
    (elapsed *. 1e9 /. float_of_int (reps * events))
    (M.work warm)

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let sizes =
    List.filter
      (fun s -> (not smoke) || s <= 1024)
      [ 64; 128; 256; 512; 1024; 2048; 4096; 8192; 16384 ]
  in
  let cells = sweep sizes in
  Printf.printf "%-12s %8s %16s %16s\n" "core" "size" "insert ns/op" "query ns/op";
  List.iter
    (fun c ->
      Printf.printf "%-12s %8d %16.1f %16.1f\n" c.core c.size c.insert_ns
        c.query_ns)
    cells;
  let mids = List.map (fun shift -> measure_mid ~shift) [ 0; 256; 4096 ] in
  Printf.printf "\n%-12s %8s %8s %16s %16s\n" "mid-insert" "size" "shift"
    "insert ns/op" "minor words/op";
  List.iter
    (fun m ->
      Printf.printf "%-12s %8d %8d %16.1f %16.2f\n" "array+ckpt" mid_size
        m.shift m.mid_ns m.words)
    mids;
  if Array.exists (( = ) "--monitor") Sys.argv then monitor_bench ();
  emit_json "BENCH_oplog.json" cells mids;
  print_endline "wrote BENCH_oplog.json";
  (* pid 0 = list core, 1 = array, 2 = array+ckpt; verdict unaffected *)
  Option.iter
    (fun o ->
      Obs.finalize o ~live:[];
      Format.printf "telemetry:@.%a@." Obs.Registry.pp o.Obs.registry)
    obs;
  let query_at core size =
    match List.find_opt (fun c -> c.core = core && c.size = size) cells with
    | Some c -> c.query_ns
    | None ->
      Printf.printf "FAIL: missing %s measurement at size %d\n" core size;
      exit 1
  in
  let speedup = query_at "list" 512 /. query_at "array+ckpt" 512 in
  Printf.printf "query speedup at 512   %.1fx vs the seed list core%s\n" speedup
    (if speedup >= 5.0 then " (>= 5x: PASS)" else " (< 5x: FAIL)");
  if speedup < 5.0 then exit 1
