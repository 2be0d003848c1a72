(* Binary codecs: primitive round trips, per-ADT update round trips, and
   the frame-length ↔ update_wire_size agreement that makes the C1 byte
   accounting real. *)

open Helpers

let primitive_tests =
  [
    qtest "varint round-trips" QCheck2.Gen.(int_range 0 1_000_000_000) (fun n ->
        let w = Codec.Writer.create () in
        Codec.Writer.varint w n;
        Codec.Reader.varint (Codec.Reader.of_string (Codec.Writer.contents w)) = n);
    qtest "varint length matches Wire.varint_size" QCheck2.Gen.(int_range 0 10_000_000)
      (fun n ->
        let w = Codec.Writer.create () in
        Codec.Writer.varint w n;
        Codec.Writer.length w = Wire.varint_size n);
    qtest "byte_string round-trips" QCheck2.Gen.(string_size (int_range 0 40)) (fun s ->
        let w = Codec.Writer.create () in
        Codec.Writer.byte_string w s;
        Codec.Reader.byte_string (Codec.Reader.of_string (Codec.Writer.contents w)) = s);
    Alcotest.test_case "u8 bounds are enforced" `Quick (fun () ->
        let w = Codec.Writer.create () in
        Alcotest.check_raises "256" (Invalid_argument "Codec.Writer.u8: out of range")
          (fun () -> Codec.Writer.u8 w 256));
    Alcotest.test_case "truncated input raises Decode_error" `Quick (fun () ->
        let r = Codec.Reader.of_string "\x80" in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Codec.Reader.varint r);
             false
           with Codec.Decode_error _ -> true));
    Alcotest.test_case "sequenced fields read back in order" `Quick (fun () ->
        let w = Codec.Writer.create () in
        Codec.Writer.u8 w 7;
        Codec.Writer.varint w 300;
        Codec.Writer.byte_string w "ab";
        let r = Codec.Reader.of_string (Codec.Writer.contents w) in
        Alcotest.(check int) "u8" 7 (Codec.Reader.u8 r);
        Alcotest.(check int) "varint" 300 (Codec.Reader.varint r);
        Alcotest.(check string) "string" "ab" (Codec.Reader.byte_string r);
        Alcotest.(check bool) "consumed" true (Codec.Reader.at_end r));
  ]

(* Per-ADT: round trip + exact frame length, driven by each type's own
   generator. *)
let adt_case (type u) name
    (module A : Uqadt.S with type update = u)
    (module C : Update_codec.S with type update = u) =
  [
    qtest (name ^ " updates round-trip") seed_gen (fun seed ->
        let rng = Prng.create seed in
        let u = A.random_update rng in
        A.equal_update u (C.of_string (C.to_string u)));
    qtest (name ^ " frame length = update_wire_size") seed_gen (fun seed ->
        let rng = Prng.create seed in
        let u = A.random_update rng in
        String.length (C.to_string u) = A.update_wire_size u);
  ]

let adt_tests =
  List.concat
    [
      adt_case "set" (module Set_spec) (module Update_codec.For_set);
      adt_case "gset" (module Gset_spec) (module Update_codec.For_gset);
      adt_case "counter" (module Counter_spec) (module Update_codec.For_counter);
      adt_case "register" (module Register_spec) (module Update_codec.For_register);
      adt_case "memory" (module Memory_spec) (module Update_codec.For_memory);
      adt_case "maxreg" (module Maxreg_spec) (module Update_codec.For_maxreg);
      adt_case "flag" (module Flag_spec) (module Update_codec.For_flag);
      adt_case "log" (module Log_spec) (module Update_codec.For_log);
      adt_case "queue" (module Queue_spec) (module Update_codec.For_queue);
      adt_case "stack" (module Stack_spec) (module Update_codec.For_stack);
      adt_case "map" (module Map_spec) (module Update_codec.For_map);
      adt_case "text" (module Text_spec) (module Update_codec.For_text);
      adt_case "bank" (module Bank_spec) (module Update_codec.For_bank);
      adt_case "pqueue" (module Pqueue_spec) (module Update_codec.For_pqueue);
    ]

let negative_tests =
  [
    Alcotest.test_case "negative values survive the sign-bit tags" `Quick (fun () ->
        let u = Set_spec.Insert (-5) in
        Alcotest.(check bool) "round trip" true
          (Set_spec.equal_update u
             (Update_codec.For_set.of_string (Update_codec.For_set.to_string u))));
    Alcotest.test_case "unknown tags are rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Update_codec.For_set.of_string "\xff\x01");
             false
           with Codec.Decode_error _ -> true));
    Alcotest.test_case "trailing bytes are rejected" `Quick (fun () ->
        let frame = Update_codec.For_counter.to_string (Counter_spec.Add 3) ^ "\x00" in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Update_codec.For_counter.of_string frame);
             false
           with Codec.Decode_error _ -> true));
  ]

(* Decoders are total: a crafted varint whose 9th byte carries a bit
   into the sign position used to decode to -2^62, which then reached
   [List.init] and [String.sub] as a negative size. *)
let sign_bit_varint = String.make 8 '\x80' ^ "\x40"

let raises_decode_error f =
  match f () with
  | _ -> false
  | exception Codec.Decode_error _ -> true

let overflow_tests =
  [
    Alcotest.test_case "a varint overflowing into the sign bit is rejected"
      `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (raises_decode_error (fun () ->
               Codec.Reader.varint (Codec.Reader.of_string sign_bit_varint))));
    Alcotest.test_case "the largest non-negative varint still decodes" `Quick
      (fun () ->
        let w = Codec.Writer.create () in
        Codec.Writer.varint w max_int;
        Alcotest.(check int) "max_int" max_int
          (Codec.Reader.varint (Codec.Reader.of_string (Codec.Writer.contents w))));
    Alcotest.test_case "byte_string with an overflowing length is rejected"
      `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (raises_decode_error (fun () ->
               Codec.Reader.byte_string
                 (Codec.Reader.of_string (sign_bit_varint ^ "abc")))));
    Alcotest.test_case "byte_string with a max_int length is rejected" `Quick
      (fun () ->
        let w = Codec.Writer.create () in
        Codec.Writer.varint w max_int;
        Alcotest.(check bool) "raises" true
          (raises_decode_error (fun () ->
               Codec.Reader.byte_string
                 (Codec.Reader.of_string (Codec.Writer.contents w ^ "abc")))));
    Alcotest.test_case "a UCL frame with an overflowing count is rejected"
      `Quick (fun () ->
        let frame = "UCL\x01" ^ sign_bit_varint in
        Alcotest.(check bool) "decode_list" true
          (raises_decode_error (fun () ->
               Oplog.decode_list ~decode_update:Update_codec.For_set.decode frame));
        let log : (Set_spec.update, Set_spec.state) Oplog.t = Oplog.create () in
        Alcotest.(check bool) "decode" true
          (raises_decode_error (fun () ->
               Oplog.decode ~decode_update:Update_codec.For_set.decode log frame)));
    Alcotest.test_case "a UCL count larger than the frame is rejected" `Quick
      (fun () ->
        let log : (Set_spec.update, Set_spec.state) Oplog.t = Oplog.create () in
        Alcotest.(check bool) "raises" true
          (raises_decode_error (fun () ->
               Oplog.decode ~decode_update:Update_codec.For_set.decode log
                 "UCL\x01\xff\xff\xff\xff\x07\x00")));
    Alcotest.test_case "a pid or origin outside the key field is rejected"
      `Quick (fun () ->
        let frame pid origin =
          Oplog.encode_list ~encode_update:Update_codec.For_set.encode
            [ (Timestamp.make ~clock:1 ~pid, origin, Set_spec.Insert 1) ]
        in
        let log : (Set_spec.update, Set_spec.state) Oplog.t = Oplog.create () in
        let rejects s =
          raises_decode_error (fun () ->
              Oplog.decode ~decode_update:Update_codec.For_set.decode log s)
          && raises_decode_error (fun () ->
                 Oplog.decode_list ~decode_update:Update_codec.For_set.decode s)
        in
        Alcotest.(check bool) "pid 2^16" true (rejects (frame 0x10000 0));
        Alcotest.(check bool) "origin 2^40" true (rejects (frame 0 (1 lsl 40)));
        Alcotest.(check int) "log untouched" 0 (Oplog.length log);
        Oplog.decode ~decode_update:Update_codec.For_set.decode log
          (frame 0xFFFF 0xFFFF);
        Alcotest.(check bool) "2^16 - 1 kept whole" true
          (Oplog.to_list log
          = [ (Timestamp.make ~clock:1 ~pid:0xFFFF, 0xFFFF, Set_spec.Insert 1) ]));
  ]

let tests = primitive_tests @ adt_tests @ negative_tests @ overflow_tests
