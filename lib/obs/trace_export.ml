let us t = Json.Num (t *. 1000.0)

let num i = Json.Num (float_of_int i)

let span_args = function
  | None -> []
  | Some s -> [ ("args", Json.Obj [ ("span", num s) ]) ]

(* Flow events bind on (cat, name, id); one flow per span links the
   origin invocation to every apply. *)
let flow ph span ~pid ~time extra =
  Json.Obj
    ([
       ("name", Json.Str "update");
       ("cat", Json.Str "span");
       ("ph", Json.Str ph);
       ("id", num span);
       ("ts", us time);
       ("pid", num pid);
       ("tid", num 0);
     ]
    @ extra)

let event_json = function
  | Span.Invoke { span; pid; time; label; local = _ } ->
    [
      Json.Obj
        ([
           ("name", Json.Str ("invoke " ^ label));
           ("cat", Json.Str "invoke");
           ("ph", Json.Str "i");
           ("s", Json.Str "p");
           ("ts", us time);
           ("pid", num pid);
           ("tid", num 0);
         ]
        @ span_args (Some span));
      flow "s" span ~pid ~time [];
    ]
  | Span.Send { span; src; time } ->
    [
      Json.Obj
        ([
           ("name", Json.Str "send");
           ("cat", Json.Str "net");
           ("ph", Json.Str "i");
           ("s", Json.Str "t");
           ("ts", us time);
           ("pid", num src);
           ("tid", num 0);
         ]
        @ span_args span);
    ]
  | Span.Deliver { span; src; dst; sent; received } ->
    [
      Json.Obj
        ([
           ("name", Json.Str (Printf.sprintf "msg %d->%d" src dst));
           ("cat", Json.Str "net");
           ("ph", Json.Str "X");
           ("ts", us sent);
           ("dur", us (received -. sent));
           ("pid", num dst);
           (* track per sender, offset past the instant track *)
           ("tid", num (src + 1));
         ]
        @ span_args span);
    ]
  | Span.Apply { span; pid; time } ->
    let base =
      Json.Obj
        ([
           ("name", Json.Str "apply");
           ("cat", Json.Str "apply");
           ("ph", Json.Str "i");
           ("s", Json.Str "t");
           ("ts", us time);
           ("pid", num pid);
           ("tid", num 0);
         ]
        @ span_args span)
    in
    (match span with
    | Some s -> [ base; flow "f" s ~pid ~time [ ("bp", Json.Str "e") ] ]
    | None -> [ base ])

(* Perfetto metadata events: ph:"M" rows are not rendered on the
   timeline; "process_name" labels each replica track and a
   "ucsim_config" row carries the run's self-description (seed,
   protocol, batch window, …) so a trace file alone identifies
   the run that produced it. *)
let meta_json ?(meta = []) ?replicas () =
  let name_row ~pid name args =
    Json.Obj
      [
        ("name", Json.Str name);
        ("ph", Json.Str "M");
        ("pid", num pid);
        ("tid", Json.Num 0.0);
        ("args", Json.Obj args);
      ]
  in
  let process_names =
    match replicas with
    | None -> []
    | Some n ->
      List.init n (fun pid ->
          name_row ~pid "process_name"
            [ ("name", Json.Str (Printf.sprintf "replica %d" pid)) ])
  in
  let config =
    match meta with [] -> [] | meta -> [ name_row ~pid:0 "ucsim_config" meta ]
  in
  process_names @ config

let to_json ?meta ?replicas spans =
  let events =
    meta_json ?meta ?replicas ()
    @ List.concat_map event_json (Span.events spans)
  in
  Json.Obj
    [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ]

let pp_span_dump ppf spans =
  List.iter
    (fun (i : Span.info) ->
      Format.fprintf ppf "span %d [%s] origin=%d invoked=%.3f@." i.id i.label
        i.origin i.invoked;
      List.iter
        (fun (src, dst, sent, received) ->
          Format.fprintf ppf "  deliver %d->%d sent=%.3f received=%.3f@." src
            dst sent received)
        i.delivers;
      List.iter
        (fun (pid, time) ->
          Format.fprintf ppf "  apply pid=%d t=%.3f (+%.3f)@." pid time
            (time -. i.invoked))
        i.applies)
    (Span.spans spans)
