type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty sample"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  let m = mean xs in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
    /. float_of_int (List.length xs)
  in
  (* All-equal samples can leave var a hair below zero in floating
     point, and sqrt of that is NaN. *)
  sqrt (Float.max 0.0 var)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q out of range";
  let rank = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

(* Ascending in-place sort in [Float.compare]'s order (NaNs first) with
   every comparison inline on unboxed elements: [Array.sort
   Float.compare] boxes both operands of each comparison it makes
   through the closure. NaNs are moved to the front first, so the merge
   sort below only ever compares ordinary floats with [<=]. *)
let sort_floats (a : float array) =
  let n = Array.length a in
  let lo = ref 0 in
  for i = 0 to n - 1 do
    let x = a.(i) in
    if Float.is_nan x then begin
      a.(i) <- a.(!lo);
      a.(!lo) <- x;
      incr lo
    end
  done;
  (* Top-down merge sort of [a.(lo .. hi-1)], ping-ponging with [tmp]
     (which holds the same elements on entry) so each level copies
     nothing; short runs are insertion-sorted in place. *)
  let rec sort (a : float array) (tmp : float array) lo hi =
    if hi - lo <= 16 then
      for i = lo + 1 to hi - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    else begin
      let mid = (lo + hi) lsr 1 in
      sort tmp a lo mid;
      sort tmp a mid hi;
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !j >= hi || (!i < mid && tmp.(!i) <= tmp.(!j)) then begin
          a.(k) <- tmp.(!i);
          incr i
        end
        else begin
          a.(k) <- tmp.(!j);
          incr j
        end
      done
    end
  in
  if n - !lo > 1 then sort a (Array.copy a) !lo n

let summarize_array xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  (* Mean and deviation in sample order, before the sort, exactly as
     the list folds of [mean] and [stddev] sum them. *)
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    sum := !sum +. xs.(i)
  done;
  let m = !sum /. float_of_int n in
  let sq = ref 0.0 in
  for i = 0 to n - 1 do
    let d = xs.(i) -. m in
    sq := !sq +. (d *. d)
  done;
  let var = !sq /. float_of_int n in
  sort_floats xs;
  {
    count = n;
    mean = m;
    stddev = sqrt (Float.max 0.0 var);
    min = xs.(0);
    max = xs.(n - 1);
    p50 = percentile xs 0.5;
    p90 = percentile xs 0.9;
    p99 = percentile xs 0.99;
  }

let summarize xs = summarize_array (Array.of_list xs)

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f"
    s.count s.mean s.stddev s.min s.p50 s.p90 s.p99 s.max

type slo = {
  target : float;
  count : int;
  p50 : float;
  p99 : float;
  max : float;
  violations : int;
  compliance : float;
}

let slo ~target xs =
  match xs with
  | [] -> invalid_arg "Stats.slo: empty sample"
  | _ ->
    let s = summarize xs in
    let violations = List.length (List.filter (fun x -> x > target) xs) in
    {
      target;
      count = s.count;
      p50 = s.p50;
      p99 = s.p99;
      max = s.max;
      violations;
      compliance = 1.0 -. (float_of_int violations /. float_of_int s.count);
    }

(* One logical operation can fan out into several timed sub-operations
   (a storm arrival touching many shards); judging each sub-latency
   separately would overweight wide arrivals and undercount misses —
   the arrival is only as fast as its slowest leg. *)
let slo_by_key ~target samples =
  match samples with
  | [] -> invalid_arg "Stats.slo_by_key: empty sample"
  | _ ->
    let worst = Hashtbl.create 64 in
    List.iter
      (fun (k, x) ->
        match Hashtbl.find_opt worst k with
        | Some y when y >= x -> ()
        | _ -> Hashtbl.replace worst k x)
      samples;
    slo ~target (Hashtbl.fold (fun _ x acc -> x :: acc) worst [])

let pp_slo ppf s =
  Format.fprintf ppf
    "target=%.3f n=%d p50=%.3f p99=%.3f max=%.3f violations=%d (%.1f%% compliant) %s"
    s.target s.count s.p50 s.p99 s.max s.violations (100.0 *. s.compliance)
    (if s.p99 <= s.target then "MET" else "MISSED")

(* ------------------------- sliding windows --------------------------- *)

(* A bounded buffer of the most recent samples: the soak sampler's
   memory for "p99 over the last W operations". A plain circular array
   — pushing is O(1), summarizing is O(W log W) and happens once per
   sample tick, never per operation. *)
type window = {
  cap : int;
  buf : float array;
  mutable filled : int;  (* samples held, <= cap *)
  mutable next : int;  (* slot the next push overwrites *)
  mutable pushed : int;  (* samples ever offered *)
}

let window ~capacity =
  if capacity <= 0 then invalid_arg "Stats.window: capacity must be positive";
  { cap = capacity; buf = Array.make capacity 0.0; filled = 0; next = 0; pushed = 0 }

let window_push w x =
  w.buf.(w.next) <- x;
  w.next <- (w.next + 1) mod w.cap;
  if w.filled < w.cap then w.filled <- w.filled + 1;
  w.pushed <- w.pushed + 1

let window_length w = w.filled

let window_pushed w = w.pushed

let window_samples w =
  (* Oldest first; order only matters to callers that render, the
     percentile paths sort anyway. *)
  List.init w.filled (fun i ->
      w.buf.((w.next - w.filled + i + (2 * w.cap)) mod w.cap))

let window_summary w =
  if w.filled = 0 then None else Some (summarize (window_samples w))

let window_slo ~target w =
  if w.filled = 0 then None else Some (slo ~target (window_samples w))

type histogram = { lo : float; width : float; counts : int array }

let histogram ~buckets xs =
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets must be positive";
  match xs with
  | [] -> invalid_arg "Stats.histogram: empty sample"
  | x0 :: _ ->
    let lo = List.fold_left Float.min x0 xs in
    let hi = List.fold_left Float.max x0 xs in
    let width =
      let w = (hi -. lo) /. float_of_int buckets in
      if w <= 0.0 then 1.0 else w
    in
    let counts = Array.make buckets 0 in
    let bucket_of x =
      let b = int_of_float ((x -. lo) /. width) in
      if b >= buckets then buckets - 1 else if b < 0 then 0 else b
    in
    List.iter (fun x -> let b = bucket_of x in counts.(b) <- counts.(b) + 1) xs;
    { lo; width; counts }

let pp_histogram ppf h =
  let max_count = Array.fold_left max 1 h.counts in
  Array.iteri
    (fun i c ->
      let bar_len = c * 40 / max_count in
      Format.fprintf ppf "[%10.3f, %10.3f) %6d %s@."
        (h.lo +. (float_of_int i *. h.width))
        (h.lo +. (float_of_int (i + 1) *. h.width))
        c
        (String.concat "" (List.init bar_len (fun _ -> "#"))))
    h.counts
