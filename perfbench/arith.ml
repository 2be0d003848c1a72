(* The benchmark's own arithmetic, kept free of any engine so the test
   suite can pin it: order statistics with the ten-sample tail rule,
   span self times, interval overlap, and the update/query split of
   issue-order latencies. *)

let median = function
  | [] -> invalid_arg "Arith.median: empty sample"
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A percentile is reported only when at least [min_tail] samples lie
   beyond it, so a p99 needs 1000 samples and a p50 needs 20. *)
let min_tail = 10

type pct = { value : float; samples : int }

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [q * n] samples at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if q <= 0.0 || q >= 1.0 then invalid_arg "Arith.percentile: q must lie in (0, 1)";
  if n = 0 then None
  else
    let idx = max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1) in
    if n - 1 - idx >= min_tail then Some { value = sorted.(idx); samples = n }
    else None

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Split one domain's issue-order latencies against its script.
   [Parallel_engine] stamps one latency per script entry, in order, so
   the i-th latency belongs to the i-th invocation. *)
let split_latencies (script : (_, _) Protocol.invocation list) (lats : float array) =
  if List.length script <> Array.length lats then
    invalid_arg "Arith.split_latencies: one latency per invocation";
  let ups = ref [] and qs = ref [] in
  List.iteri
    (fun i -> function
      | Protocol.Invoke_update _ -> ups := lats.(i) :: !ups
      | Protocol.Invoke_query _ -> qs := lats.(i) :: !qs)
    script;
  (List.rev !ups, List.rev !qs)

(* Spans of one domain, in open order: [parent.(i)] is the index of the
   span that was open when span [i] opened, or [-1]. Children nest
   inside their parent and never overlap each other (a domain is
   sequential), so a span's self time is its duration minus the
   durations of its direct children. *)
let self_times ~start ~stop ~parent ~len =
  let self = Array.init len (fun i -> stop.(i) - start.(i)) in
  for i = 0 to len - 1 do
    let p = parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (stop.(i) - start.(i))
  done;
  self

let total_length = List.fold_left (fun acc (s, e) -> acc + (e - s)) 0

(* Total length of the intersection of two lists of intervals, each
   sorted by start and pairwise disjoint. *)
let overlap a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ | _, [] -> acc
    | (s1, e1) :: ra, (s2, e2) :: rb ->
      let lo = max s1 s2 and hi = min e1 e2 in
      let acc = if hi > lo then acc + (hi - lo) else acc in
      if e1 <= e2 then go acc ra b else go acc a rb
  in
  go 0 a b
