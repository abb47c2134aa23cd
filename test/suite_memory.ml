(* Tests for the sparse simulated memory. *)

module M = Memsim.Memory

let test_roundtrip_widths () =
  let m = M.create () in
  M.store8 m 100 0xAB;
  Alcotest.(check int) "8-bit" 0xAB (M.load8 m 100);
  M.store32 m 200 0xDEADBEEF;
  Alcotest.(check int) "32-bit" 0xDEADBEEF (M.load32 m 200);
  Alcotest.(check int) "32-bit signed" (0xDEADBEEF - 0x100000000)
    (M.load32s m 200);
  M.store64 m 300 0x0123456789ABCDEFL;
  Alcotest.(check int64) "64-bit" 0x0123456789ABCDEFL (M.load64 m 300);
  M.storef m 400 3.14159;
  Alcotest.(check (float 0.)) "float" 3.14159 (M.loadf m 400)

let test_zero_initialized () =
  let m = M.create () in
  Alcotest.(check int) "fresh memory reads zero" 0 (M.load32 m 123456)

let test_chunk_boundary () =
  let m = M.create ~chunk_bytes:4096 () in
  (* straddle the 4096-byte chunk boundary *)
  M.store32 m 4094 0x11223344;
  Alcotest.(check int) "straddling 32-bit" 0x11223344 (M.load32 m 4094);
  M.store64 m 8190 0x1122334455667788L;
  Alcotest.(check int64) "straddling 64-bit" 0x1122334455667788L
    (M.load64 m 8190)

let test_blit_and_fill () =
  let m = M.create () in
  for i = 0 to 15 do
    M.store8 m (1000 + i) (i + 1)
  done;
  M.blit m ~src:1000 ~dst:2000 ~bytes:16;
  for i = 0 to 15 do
    Alcotest.(check int) "blit byte" (i + 1) (M.load8 m (2000 + i))
  done;
  M.fill_zero m 2000 ~bytes:16;
  for i = 0 to 15 do
    Alcotest.(check int) "zeroed" 0 (M.load8 m (2000 + i))
  done

let test_sparse_chunks () =
  let m = M.create ~chunk_bytes:4096 () in
  let before = M.chunks_allocated m in
  M.store8 m (100 * 4096) 1;
  M.store8 m (500 * 4096) 1;
  Alcotest.(check int) "two chunks materialized" (before + 2)
    (M.chunks_allocated m)

let prop_store_load_32 =
  QCheck.Test.make ~count:300 ~name:"32-bit store/load roundtrip"
    QCheck.(pair (int_bound 1_000_000) (int_bound 0xFFFFFF))
    (fun (a, v) ->
      let m = M.create () in
      M.store32 m (a * 4) v;
      M.load32 m (a * 4) = v)

let prop_floats =
  QCheck.Test.make ~count:300 ~name:"float store/load roundtrip"
    QCheck.(pair (int_bound 100_000) float)
    (fun (a, v) ->
      let m = M.create () in
      M.storef m (a * 8) v;
      let r = M.loadf m (a * 8) in
      (Float.is_nan v && Float.is_nan r) || r = v)

let prop_disjoint_writes =
  QCheck.Test.make ~count:200 ~name:"writes to distinct words do not clobber"
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let m = M.create () in
      M.store32 m (a * 4) 0xAAAA;
      M.store32 m (b * 4) 0xBBBB;
      M.load32 m (a * 4) = 0xAAAA && M.load32 m (b * 4) = 0xBBBB)

(* Malloc can put a 20-byte element at offset 65528 of a 64 KB chunk:
   the bulk copies must split it at the boundary. *)
let test_bulk_copy_straddles_chunk () =
  let m = M.create () in
  let a = 65528 in
  let img = Bytes.init 20 (fun i -> Char.chr (0xA0 + i)) in
  M.store_bytes m a img ~pos:0 ~len:20;
  Alcotest.(check int) "both chunks materialized" 2 (M.chunks_allocated m);
  for i = 0 to 19 do
    Alcotest.(check int) "byte stored" (0xA0 + i) (M.load8 m (a + i))
  done;
  let back = Bytes.make 24 '.' in
  M.load_bytes m a back ~pos:2 ~len:20;
  Alcotest.(check string) "loaded at pos"
    (".." ^ Bytes.to_string img ^ "..")
    (Bytes.to_string back);
  Alcotest.(check int) "word across the boundary" 0xABAAA9A8 (M.load32 m 65536);
  M.blit m ~src:a ~dst:(3 * 65536 - 10) ~bytes:20;
  for i = 0 to 19 do
    Alcotest.(check int) "blit across a boundary" (0xA0 + i)
      (M.load8 m ((3 * 65536) - 10 + i))
  done

(* The bulk copies against byte-at-a-time copies, on small chunks so a
   range often spans several; overlapping blits copy as memmove does. *)
let prop_bulk_copies_bytewise =
  QCheck.Test.make ~count:300 ~name:"bulk copies equal byte-at-a-time copies"
    QCheck.(
      quad (int_bound 2) (int_bound 300) (int_bound 200) (int_range (-60) 60))
    (fun (shift, a, len, delta) ->
      let chunk_bytes = 16 lsl (2 * shift) in
      let fresh () =
        let m = M.create ~chunk_bytes () in
        for i = 0 to 600 do
          M.store8 m i ((i * 7) + 3)
        done;
        m
      in
      let m = fresh () in
      let buf = Bytes.make (len + 3) '\000' in
      M.load_bytes m a buf ~pos:3 ~len;
      let loaded = ref true in
      for i = 0 to len - 1 do
        if Char.code (Bytes.get buf (3 + i)) <> M.load8 m (a + i) then
          loaded := false
      done;
      let src = Bytes.init len (fun i -> Char.chr ((i * 13) land 0xff)) in
      let bulk = fresh () and bytewise = fresh () in
      M.store_bytes bulk a src ~pos:0 ~len;
      for i = 0 to len - 1 do
        M.store8 bytewise (a + i) (Char.code (Bytes.get src i))
      done;
      let dst = max 0 (a + delta) in
      let moved = fresh () and expect = fresh () in
      M.blit moved ~src:a ~dst ~bytes:len;
      let tmp = Array.init len (fun i -> M.load8 expect (a + i)) in
      Array.iteri (fun i b -> M.store8 expect (dst + i) b) tmp;
      let same x y =
        List.for_all (fun i -> M.load8 x i = M.load8 y i) (List.init 800 Fun.id)
      in
      !loaded && same bulk bytewise && same moved expect)

let tests =
  [
    ( "memory",
      [
        Alcotest.test_case "width roundtrips" `Quick test_roundtrip_widths;
        Alcotest.test_case "zero initialized" `Quick test_zero_initialized;
        Alcotest.test_case "chunk boundary straddling" `Quick
          test_chunk_boundary;
        Alcotest.test_case "blit and fill" `Quick test_blit_and_fill;
        Alcotest.test_case "sparse materialization" `Quick test_sparse_chunks;
        QCheck_alcotest.to_alcotest prop_store_load_32;
        QCheck_alcotest.to_alcotest prop_floats;
        QCheck_alcotest.to_alcotest prop_disjoint_writes;
        Alcotest.test_case "bulk copies straddle a 64 KB chunk" `Quick
          test_bulk_copy_straddles_chunk;
        QCheck_alcotest.to_alcotest prop_bulk_copies_bytewise;
      ] );
  ]
