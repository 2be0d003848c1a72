module Make (A : Uqadt.S) = struct
  include A

  type message = { ts : Timestamp.t; update : A.update }

  type t = {
    ctx : message Protocol.ctx;
    clock : Lamport.t;
    log : (A.update, A.state) Oplog.t;
  }

  let protocol_name = "universal-memo"

  let snapshot_interval = 32

  let create ctx =
    let t =
      {
        ctx;
        clock = Lamport.create ();
        log = Oplog.create ~checkpoint_interval:snapshot_interval ();
      }
    in
    Option.iter
      (fun (r : Obs.replica) -> Oplog.set_profile t.log (Some r.profile))
      ctx.Protocol.obs;
    t

  let update t u ~on_done =
    let cl = Lamport.tick t.clock in
    let ts = Timestamp.make ~clock:cl ~pid:t.ctx.Protocol.pid in
    ignore
      (Oplog.insert t.log { Oplog.ts; origin = t.ctx.Protocol.pid; payload = u });
    t.ctx.Protocol.broadcast { ts; update = u };
    on_done ()

  let receive t ~src { ts; update = u } =
    Lamport.merge t.clock ts.Timestamp.clock;
    ignore (Oplog.insert t.log { Oplog.ts; origin = src; payload = u })

  let query t q ~on_result =
    let (_ : int) = Lamport.tick t.clock in
    let state, steps = Oplog.replay t.log ~apply:A.apply ~initial:A.initial in
    t.ctx.Protocol.count_replay steps;
    on_result (A.eval state q)

  include Protocol.Defaults (struct type nonrec t = t type nonrec message = message let receive = receive end)

  let message_wire_size { ts; update = u } =
    Timestamp.wire_size ts + A.update_wire_size u

  let describe_message { ts; update = u } =
    Format.asprintf "%a%a" A.pp_update u Timestamp.pp ts

  let log_length t = Oplog.length t.log

  let metadata_bytes t = Oplog.footprint t.log ~payload_wire_size:A.update_wire_size

  let certificate t = Some (Oplog.certificate t.log)

  let snapshots_live t = Oplog.checkpoints_live t.log
end
