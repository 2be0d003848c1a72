(** Binary encoding primitives: unsigned LEB128 varints plus tag bytes,
    the concrete encoding whose sizes {!Wire} accounts for. The update
    codecs ({!Update_codec}) are built on these, and the tests assert
    that every encoded update occupies exactly the bytes its ADT's
    [update_wire_size] claims — so the message-complexity experiment
    (C1) measures a real wire format, not an estimate. *)

exception Decode_error of string

(** Append-only binary writer. *)
module Writer : sig
  type t

  val create : ?size:int -> unit -> t
  (** [size] pre-allocates the underlying buffer (default 16 bytes) —
      callers that can compute an exact frame size with {!Wire} avoid
      every growth copy. *)

  val u8 : t -> int -> unit
  (** One byte; must be in [0, 255]. *)

  val varint : t -> int -> unit
  (** LEB128; must be non-negative. *)

  val byte_string : t -> string -> unit
  (** Varint length prefix followed by the bytes. *)

  val contents : t -> string

  val length : t -> int
end

(** Sequential binary reader. *)
module Reader : sig
  type t

  val of_string : string -> t

  val u8 : t -> int

  val varint : t -> int
  (** Always non-negative: an encoding of more than 62 bits is rejected. *)

  val byte_string : t -> string

  val pos : t -> int
  (** Bytes consumed so far. *)

  val at_end : t -> bool
  (** All input consumed — decoders check this for canonical frames.
      @raise Decode_error on truncated input in the functions above. *)
end
