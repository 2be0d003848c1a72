exception Decode_error of string

module Writer = struct
  type t = Buffer.t

  let create ?(size = 16) () = Buffer.create size

  let u8 t b =
    if b < 0 || b > 255 then invalid_arg "Codec.Writer.u8: out of range";
    Buffer.add_char t (Char.chr b)

  let varint t n =
    if n < 0 then invalid_arg "Codec.Writer.varint: negative";
    let rec go n =
      if n < 128 then Buffer.add_char t (Char.chr n)
      else begin
        Buffer.add_char t (Char.chr (128 lor (n land 127)));
        go (n lsr 7)
      end
    in
    go n

  let byte_string t s =
    varint t (String.length s);
    Buffer.add_string t s

  let contents = Buffer.contents

  let length = Buffer.length
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }

  let u8 t =
    if t.pos >= String.length t.data then raise (Decode_error "u8: truncated");
    let b = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    b

  (* OCaml ints carry 63 bits, so the 9th byte (shift 56) may hold only
     six payload bits: a seventh would land in the sign bit and decode
     to a negative value no [Writer.varint] can produce. *)
  let varint t =
    let rec go shift acc =
      if shift > 62 then raise (Decode_error "varint: too long");
      let b = u8 t in
      if shift = 56 && b land 127 > 63 then
        raise (Decode_error "varint: overflows a non-negative int");
      let acc = acc lor ((b land 127) lsl shift) in
      if b < 128 then acc else go (shift + 7) acc
    in
    go 0 0

  let byte_string t =
    let len = varint t in
    if len > String.length t.data - t.pos then
      raise (Decode_error "byte_string: truncated");
    let s = String.sub t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let pos t = t.pos

  let at_end t = t.pos = String.length t.data
end
