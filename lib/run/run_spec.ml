module J = Obs.Json

type soak = {
  sample_interval : float;
  duration : float option;
  rules : Obs.Alert.rule list;
}

type sim = {
  protocol : string;
  seed : int;
  n : int;
  ops : int;
  mean_delay : float;
  fifo : bool;
  crashes : (float * int) list;
  checkpoint_interval : int option;
  batch_window : float option;
  probe_interval : float option;
  monitors : Obs.Monitor.criterion list;
  partitions : Network.partition list;
  churn : Network.churn_event list;
  scripts : string list list option;
  shards : int;
  keys : int;
  rebalance : float option;
  soak : soak option;
}

type parallel = {
  spec : string;
  seed : int;
  domains : int;
  ops : int;
  query_ratio : float;
  zipf : float;
  batch : int;
  flush_window : int;
  mailbox : int;
}

type t = Sim of sim | Parallel of parallel

let default =
  {
    protocol = "universal";
    seed = 42;
    n = 4;
    ops = 100;
    mean_delay = 10.0;
    fifo = false;
    crashes = [];
    checkpoint_interval = None;
    batch_window = None;
    probe_interval = None;
    monitors = [];
    partitions = [];
    churn = [];
    scripts = None;
    shards = 1;
    keys = 64;
    rebalance = None;
    soak = None;
  }

(* ---- encoding ---- *)

let int i = J.Num (float_of_int i)
let opt f = function None -> J.Null | Some v -> f v
let arr f xs = J.Arr (List.map f xs)
let num f = J.Num f
let str s = J.Str s

let sim_header (s : sim) =
  let crash (t, pid) = J.Obj [ ("t", num t); ("pid", int pid) ] in
  let partition (p : Network.partition) =
    J.Obj
      [
        ("from", num p.from_time);
        ("to", num p.to_time);
        ("group", arr int p.group);
      ]
  in
  let churn (c : Network.churn_event) =
    J.Obj
      [
        ("t", num c.time);
        ("pid", int c.pid);
        ("action", str (Network.churn_action_name c.action));
      ]
  in
  [
    ("protocol", str s.protocol);
    ("seed", int s.seed);
    ("n", int s.n);
    ("ops", int s.ops);
    ("mean_delay", num s.mean_delay);
    ("fifo", J.Bool s.fifo);
    ("crashes", arr crash s.crashes);
    (* the array-backed Oplog is the only log core; the field stays so
       headers keep their bytes *)
    ("log_core", str "array");
    ("checkpoint_interval", opt int s.checkpoint_interval);
    ("batch_window", opt num s.batch_window);
    ("probe_interval", opt num s.probe_interval);
    ("monitors", arr (fun c -> str (Obs.Monitor.criterion_name c)) s.monitors);
    ("partitions", arr partition s.partitions);
    ("churn", arr churn s.churn);
    ("scripts", opt (arr (arr str)) s.scripts);
  ]
  @ (if
       s.shards <> default.shards || s.keys <> default.keys
       || s.rebalance <> None
     then
       [
         ("shards", int s.shards);
         ("keys", int s.keys);
         ("rebalance", opt num s.rebalance);
       ]
     else [])
  @
  match s.soak with
  | None -> []
  | Some k ->
    [
      ("sample_interval", num k.sample_interval);
      ("duration", opt num k.duration);
      ("rules", arr (fun r -> str (Obs.Alert.rule_to_string r)) k.rules);
    ]

let parallel_header (p : parallel) =
  [
    ("engine", str "parallel");
    ("spec", str p.spec);
    ("seed", int p.seed);
    ("domains", int p.domains);
    ("ops", int p.ops);
    ("query_ratio", num p.query_ratio);
    ("zipf", num p.zipf);
    ("batch", int p.batch);
    ("flush_window", int p.flush_window);
    ("mailbox", int p.mailbox);
  ]

let to_header = function
  | Sim s -> sim_header s
  | Parallel p -> parallel_header p

(* ---- decoding: every accessor returns a result, nothing raises ---- *)

let ( let* ) = Result.bind
let ( >>= ) = Option.bind
let bad k = Error (Printf.sprintf "journal header: bad or missing field %S" k)

(* [Some] of every element converted, [None] if any fails *)
let all conv xs =
  List.fold_right
    (fun x acc ->
      match (conv x, acc) with Some v, Some vs -> Some (v :: vs) | _ -> None)
    xs (Some [])

let list_of conv j = J.get_list j >>= all conv

let req h k conv =
  match List.assoc_opt k h >>= conv with Some v -> Ok v | None -> bad k

let optional h k conv =
  match List.assoc_opt k h with
  | None | Some J.Null -> Ok None
  | Some j -> ( match conv j with Some v -> Ok (Some v) | None -> bad k)

let with_default d r = Result.map (Option.value ~default:d) r
let list h k conv = with_default [] (optional h k (list_of conv))
let bool = function J.Bool b -> Some b | _ -> None

let crash j =
  match (J.member "t" j >>= J.get_num, J.member "pid" j >>= J.get_int) with
  | Some t, Some pid -> Some (t, pid)
  | _ -> None

let partition j =
  match
    ( J.member "from" j >>= J.get_num,
      J.member "to" j >>= J.get_num,
      J.member "group" j >>= list_of J.get_int )
  with
  | Some from_time, Some to_time, Some group ->
    Some { Network.from_time; to_time; group }
  | _ -> None

let churn_event j =
  match
    ( J.member "t" j >>= J.get_num,
      J.member "pid" j >>= J.get_int,
      J.member "action" j >>= J.get_str >>= Network.churn_action_of_name )
  with
  | Some time, Some pid, Some action -> Some { Network.time; pid; action }
  | _ -> None

let criterion j = J.get_str j >>= Obs.Monitor.criterion_of_name

let rule j =
  J.get_str j >>= fun s ->
  match Obs.Alert.rule_of_string s with
  | r -> Some r
  | exception Invalid_argument _ -> None

let sim_of_header h =
  let* protocol = req h "protocol" J.get_str in
  let* seed = req h "seed" J.get_int in
  let* n = req h "n" J.get_int in
  let* ops = req h "ops" J.get_int in
  let* mean_delay = req h "mean_delay" J.get_num in
  let* fifo = req h "fifo" bool in
  let* () =
    match req h "log_core" J.get_str with
    | Ok "array" -> Ok ()
    | Ok "list" ->
      Error "journal header: the \"list\" log core is no longer supported"
    | Ok s -> Error (Printf.sprintf "journal header: unknown log core %S" s)
    | Error e -> Error e
  in
  let* crashes =
    match List.assoc_opt "crash" h with
    | Some (J.Bool true) when not (List.mem_assoc "crashes" h) ->
      (* journals from before the explicit crash schedule carry the old
         one-crash flag *)
      Ok [ (50.0, n - 1) ]
    | _ -> list h "crashes" crash
  in
  let* checkpoint_interval = optional h "checkpoint_interval" J.get_int in
  let* batch_window = optional h "batch_window" J.get_num in
  let* probe_interval = optional h "probe_interval" J.get_num in
  let* monitors = list h "monitors" criterion in
  let* partitions = list h "partitions" partition in
  let* churn = list h "churn" churn_event in
  let* scripts = optional h "scripts" (list_of (list_of J.get_str)) in
  let* shards = with_default default.shards (optional h "shards" J.get_int) in
  let* keys = with_default default.keys (optional h "keys" J.get_int) in
  let* rebalance = optional h "rebalance" J.get_num in
  let* soak =
    if not (List.mem_assoc "sample_interval" h) then Ok None
    else
      let* sample_interval = req h "sample_interval" J.get_num in
      let* duration = optional h "duration" J.get_num in
      let* rules = list h "rules" rule in
      Ok (Some { sample_interval; duration; rules })
  in
  Ok
    {
      protocol;
      seed;
      n;
      ops;
      mean_delay;
      fifo;
      crashes;
      checkpoint_interval;
      batch_window;
      probe_interval;
      monitors;
      partitions;
      churn;
      scripts;
      shards;
      keys;
      rebalance;
      soak;
    }

let parallel_of_header h =
  let* spec = req h "spec" J.get_str in
  let* seed = req h "seed" J.get_int in
  let* domains = req h "domains" J.get_int in
  let* ops = req h "ops" J.get_int in
  let* query_ratio = req h "query_ratio" J.get_num in
  let* zipf = req h "zipf" J.get_num in
  let* batch = with_default 1 (optional h "batch" J.get_int) in
  let* flush_window = with_default 0 (optional h "flush_window" J.get_int) in
  let* mailbox = with_default 1024 (optional h "mailbox" J.get_int) in
  Ok
    {
      spec;
      seed;
      domains;
      ops;
      query_ratio;
      zipf;
      batch;
      flush_window;
      mailbox;
    }

let of_header h =
  match List.assoc_opt "engine" h with
  | None -> Result.map (fun s -> Sim s) (sim_of_header h)
  | Some (J.Str "parallel") ->
    Result.map (fun p -> Parallel p) (parallel_of_header h)
  | Some _ -> bad "engine"

let trace_meta (s : sim) =
  [
    ("seed", int s.seed);
    ("replicas", int s.n);
    ("protocol", str s.protocol);
    ("log_core", str "array");
    ("batch_window", opt num s.batch_window);
  ]

let series_meta (s : sim) (k : soak) =
  [
    ("protocol", str s.protocol);
    ("seed", int s.seed);
    ("n", int s.n);
    ("sample_interval", num k.sample_interval);
  ]
