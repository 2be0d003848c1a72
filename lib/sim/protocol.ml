type ('u, 'q) invocation = Invoke_update of 'u | Invoke_query of 'q

type 'msg ctx = {
  pid : int;
  n : int;
  now : unit -> float;
  send : dst:int -> 'msg -> unit;
  broadcast : 'msg -> unit;
  broadcast_batch : 'msg list -> unit;
  set_timer : delay:float -> (unit -> unit) -> unit;
  count_replay : int -> unit;
  obs : Obs.replica option;
}

module type PROTOCOL = sig
  include Uqadt.S

  type t

  type message

  val protocol_name : string

  val create : message ctx -> t

  val update : t -> update -> on_done:(unit -> unit) -> unit

  val query : t -> query -> on_result:(output -> unit) -> unit

  val receive : t -> src:int -> message -> unit

  val receive_batch : t -> src:int -> message list -> unit
  (** Deliver a coalesced envelope from one peer, observably equivalent
      to [List.iter (receive t ~src)] in list order. Protocols with a
      batch-aware core (one clock merge, one log merge pass) override
      the default per-message iteration; for the rest the equivalence
      is literal. *)

  val message_wire_size : message -> int

  val describe_message : message -> string

  val log_length : t -> int

  val metadata_bytes : t -> int

  val certificate : t -> (int * update) list option

  val snapshot : t -> string option
  (** Serialized state for churn catch-up ([None] when the protocol has
      no persistence codec — such replicas skip snapshot transfer and
      rely on the normal message flow to converge). *)

  val absorb : t -> string -> bool
  (** Merge a peer's {!snapshot} into this replica, keeping any local
      state (a rejoiner's crash-time log survives the merge). Returns
      [false] when unsupported or the payload does not decode. *)
end

module Defaults (R : sig
  type t
  type message

  val receive : t -> src:int -> message -> unit
end) =
struct
  let receive_batch t ~src msgs = List.iter (R.receive t ~src) msgs
  let snapshot (_ : R.t) = None
  let absorb (_ : R.t) (_ : string) = false
end
