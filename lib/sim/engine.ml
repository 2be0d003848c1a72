(* The pending events form a binary min-heap on (time, seq). The heap
   itself is three parallel arrays in heap order — unboxed times, seqs,
   and the slot where each event's thunk lives — so a sift moves only
   floats and ints: no boxing, and no write barrier, which a pointer
   store into these long-lived (major-heap) arrays would pay at every
   level. Thunks sit in [thunks] by slot and never move; [free.(size ..
   cap-1)] holds the unused slots. Scheduling and executing an event
   therefore allocate nothing once the arrays have grown.

   No float crosses a function boundary inside this module, because
   without flambda a float argument or result is boxed: a new event's
   time is written into the free heap position first and the sift reads
   it from there. The clock is kept unboxed as well, in a one-slot
   [Float.Array]; [now] boxes it at most once per executed event and
   hands every later caller the same box. *)

type t = {
  clock : Float.Array.t;  (** one slot: the current simulated time *)
  mutable boxed : float;  (** [clock.(0)], once [now] has boxed it *)
  mutable boxed_fresh : bool;
  mutable next_seq : int;
  mutable size : int;
  mutable times : Float.Array.t;  (** heap order *)
  mutable seqs : int array;  (** heap order *)
  mutable slots : int array;  (** heap order: the event's index in [thunks] *)
  mutable thunks : (unit -> unit) array;  (** by slot *)
  mutable free : int array;  (** [free.(size .. cap-1)]: the unused slots *)
}

let nop () = ()

let create () =
  {
    clock = Float.Array.make 1 0.0;
    boxed = 0.0;
    boxed_fresh = true;
    next_seq = 0;
    size = 0;
    times = Float.Array.make 0 0.0;
    seqs = [||];
    slots = [||];
    thunks = [||];
    free = [||];
  }

let now t =
  if not t.boxed_fresh then begin
    t.boxed <- Float.Array.unsafe_get t.clock 0;
    t.boxed_fresh <- true
  end;
  t.boxed

let pending t = t.size

(* Room for one more event. A full queue uses every slot, so the fresh
   slots are exactly [cap .. cap'-1]. *)
let reserve t =
  let cap = Array.length t.seqs in
  if t.size = cap then begin
    let cap' = max 16 (2 * cap) in
    let grow make blit a x =
      let a' = make cap' x in
      blit a 0 a' 0 cap;
      a'
    in
    t.times <- grow Float.Array.make Float.Array.blit t.times 0.0;
    t.seqs <- grow Array.make Array.blit t.seqs 0;
    t.slots <- grow Array.make Array.blit t.slots 0;
    t.thunks <- grow Array.make Array.blit t.thunks nop;
    t.free <- Array.init cap' Fun.id
  end

(* Insert [thunk] whose time the caller has already stored at
   [times.(size)]: move the hole up past every later parent, then fill
   it. *)
let sift_up t thunk =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let time = Float.Array.unsafe_get times t.size in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot = Array.unsafe_get t.free t.size in
  Array.unsafe_set t.thunks slot thunk;
  let hole = ref t.size in
  let moving = ref true in
  while !moving && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let pt = Float.Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Float.Array.unsafe_set times !hole pt;
      Array.unsafe_set seqs !hole (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !hole (Array.unsafe_get slots parent);
      hole := parent
    end
    else moving := false
  done;
  Float.Array.unsafe_set times !hole time;
  Array.unsafe_set seqs !hole seq;
  Array.unsafe_set slots !hole slot;
  t.size <- t.size + 1

(* Remove the root: its slot is cleared (so the executed thunk, and
   whatever it captured, becomes garbage) and freed, and the last event
   fills the hole the root leaves, sifting down past every earlier
   child. *)
let remove_top t =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let last = t.size - 1 in
  t.size <- last;
  let top_slot = Array.unsafe_get slots 0 in
  Array.unsafe_set t.thunks top_slot nop;
  Array.unsafe_set t.free last top_slot;
  let time = Float.Array.unsafe_get times last in
  let seq = Array.unsafe_get seqs last in
  let slot = Array.unsafe_get slots last in
  if last > 0 then begin
    let hole = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !hole) + 1 in
      if l >= last then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < last
             &&
             let lt = Float.Array.unsafe_get times l
             and rt = Float.Array.unsafe_get times r in
             rt < lt || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then r
          else l
        in
        let ct = Float.Array.unsafe_get times c in
        let cs = Array.unsafe_get seqs c in
        if ct < time || (ct = time && cs < seq) then begin
          Float.Array.unsafe_set times !hole ct;
          Array.unsafe_set seqs !hole cs;
          Array.unsafe_set slots !hole (Array.unsafe_get slots c);
          hole := c
        end
        else moving := false
      end
    done;
    Float.Array.unsafe_set times !hole time;
    Array.unsafe_set seqs !hole seq;
    Array.unsafe_set slots !hole slot
  end

let schedule_at t ~time thunk =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  reserve t;
  Float.Array.unsafe_set t.times t.size (Float.max time (Float.Array.unsafe_get t.clock 0));
  sift_up t thunk

let schedule t ~delay thunk =
  if Float.is_nan delay || delay < 0.0 || delay = Float.infinity then
    invalid_arg "Engine.schedule: delay must be finite and non-negative";
  reserve t;
  let clock = Float.Array.unsafe_get t.clock 0 in
  Float.Array.unsafe_set t.times t.size (Float.max (clock +. delay) clock);
  sift_up t thunk

let step t =
  if t.size = 0 then false
  else begin
    Float.Array.unsafe_set t.clock 0 (Float.Array.unsafe_get t.times 0);
    t.boxed_fresh <- false;
    let thunk = Array.unsafe_get t.thunks (Array.unsafe_get t.slots 0) in
    remove_top t;
    thunk ();
    true
  end

let run ?(until = Float.infinity) t =
  while t.size > 0 && not (Float.Array.unsafe_get t.times 0 > until) do
    let _ : bool = step t in
    ()
  done
