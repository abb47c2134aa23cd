(* Tests for the simulated memory's page table. *)

module M = Memsim.Memory

let test_roundtrip_widths () =
  let m = M.create ~page_bytes:8192 in
  M.store8 m 100 0xAB;
  Alcotest.(check int) "8-bit" 0xAB (M.load8 m 100);
  M.store32 m 200 0xDEADBEEF;
  Alcotest.(check int) "32-bit" 0xDEADBEEF (M.load32 m 200);
  Alcotest.(check int) "32-bit signed" (0xDEADBEEF - 0x100000000)
    (M.load32s m 200)

let test_zero_initialized () =
  let m = M.create ~page_bytes:8192 in
  Alcotest.(check int) "fresh memory reads zero" 0 (M.load32 m 123456)

let test_page_boundary () =
  let m = M.create ~page_bytes:4096 in
  (* straddle the 4096-byte page boundary *)
  M.store32 m 4094 0x11223344;
  Alcotest.(check int) "straddling 32-bit" 0x11223344 (M.load32 m 4094)

(* One [Bytes.fill] per page: a range over three 16-byte pages zeroes
   exactly its own bytes. *)
let test_fill_zero () =
  let m = M.create ~page_bytes:16 in
  for i = 0 to 63 do
    M.store8 m i (i + 1)
  done;
  M.fill_zero m 10 ~bytes:30;
  for i = 0 to 63 do
    let want = if i >= 10 && i < 40 then 0 else i + 1 in
    Alcotest.(check int) (Printf.sprintf "byte %d" i) want (M.load8 m i)
  done

(* Only touched pages are materialized, reads included, however far
   apart; the page table grows to reach them, and a materialized page
   holds all [page_bytes] bytes. *)
let test_sparse_pages () =
  let m = M.create ~page_bytes:4096 in
  Alcotest.(check int) "nothing materialized" 0 (M.pages_materialized m);
  M.store8 m ((100 * 4096) + 5) 1;
  Alcotest.(check int) "a read on page 500 returns 0" 0
    (M.load32 m (500 * 4096));
  M.store32 m ((100 * 4096) + 8) 2;
  Alcotest.(check int) "two pages materialized" 2 (M.pages_materialized m);
  Alcotest.(check int) "the table reaches page 500" 0
    (M.load32 m ((500 * 4096) + 4092));
  M.store32 m ((100 * 4096) + 4092) 3;
  Alcotest.(check int) "a page is page_bytes long" 3
    (M.load32 m ((100 * 4096) + 4092));
  Alcotest.(check int) "still two pages" 2 (M.pages_materialized m)

(* Simulated pointers are 32-bit: an address outside [0, 2^32) is a
   caller's bug, reported with the address, whether it reaches [Memory]
   directly or through the machine's inline accessors. *)
let test_out_of_range () =
  let m = M.create ~page_bytes:8192 in
  let raises name a f =
    Alcotest.check_raises name
      (Invalid_argument
         (Printf.sprintf "Memory: address %d is outside [0, 2^32)" a))
      (fun () -> ignore (f ()))
  in
  let top = 1 lsl 32 in
  raises "load32 -4" (-4) (fun () -> M.load32 m (-4));
  raises "store32 2^32" top (fun () -> M.store32 m top 1);
  raises "load8 -1" (-1) (fun () -> M.load8 m (-1));
  raises "load32 2^40" (1 lsl 40) (fun () -> M.load32 m (1 lsl 40));
  raises "fill_zero past 2^32" top (fun () ->
      M.fill_zero m (top - 8) ~bytes:16);
  let machine = Memsim.Machine.create (Memsim.Config.rsim_table1 ()) in
  raises "Machine.load32 -4" (-4) (fun () ->
      Memsim.Machine.load32 machine (-4));
  raises "Machine.ustore32 2^32" top (fun () ->
      Memsim.Machine.ustore32 machine top 1);
  Alcotest.(check int) "the last word is in range" 7
    (M.store32 m (top - 4) 7;
     M.load32 m (top - 4))

(* mst's 512 hash tables each bump their own 16-page region and touch
   little of it: at page granularity the quick-scale Base arm
   materializes a few hundred pages. *)
let test_mst_pages () =
  let ctx = Olden.Common.make_ctx Olden.Common.Base in
  ignore
    (Olden.Mst.run ~params:Olden.Mst.default_params ~ctx Olden.Common.Base);
  let pages =
    M.pages_materialized (Memsim.Machine.memory ctx.Olden.Common.machine)
  in
  if pages > 600 then
    Alcotest.failf "quick mst Base arm materialized %d pages (at most 600)"
      pages

let prop_store_load_32 =
  QCheck.Test.make ~count:300 ~name:"32-bit store/load roundtrip"
    QCheck.(pair (int_bound 1_000_000) (int_bound 0xFFFFFF))
    (fun (a, v) ->
      let m = M.create ~page_bytes:8192 in
      M.store32 m (a * 4) v;
      M.load32 m (a * 4) = v)

let prop_disjoint_writes =
  QCheck.Test.make ~count:200 ~name:"writes to distinct words do not clobber"
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let m = M.create ~page_bytes:8192 in
      M.store32 m (a * 4) 0xAAAA;
      M.store32 m (b * 4) 0xBBBB;
      M.load32 m (a * 4) = 0xAAAA && M.load32 m (b * 4) = 0xBBBB)

(* Malloc can put a 20-byte element 8 bytes before a page boundary:
   the bulk copies must split it there. *)
let test_bulk_copy_straddles_page () =
  let m = M.create ~page_bytes:8192 in
  let a = 8184 in
  let img = Bytes.init 20 (fun i -> Char.chr (0xA0 + i)) in
  M.store_bytes m a img ~pos:0 ~len:20;
  Alcotest.(check int) "both pages materialized" 2 (M.pages_materialized m);
  for i = 0 to 19 do
    Alcotest.(check int) "byte stored" (0xA0 + i) (M.load8 m (a + i))
  done;
  let back = Bytes.make 24 '.' in
  M.load_bytes m a back ~pos:2 ~len:20;
  Alcotest.(check string) "loaded at pos"
    (".." ^ Bytes.to_string img ^ "..")
    (Bytes.to_string back);
  Alcotest.(check int) "word across the boundary" 0xABAAA9A8 (M.load32 m 8192)

(* The bulk operations against byte-at-a-time ones, on small pages so a
   range often spans several and starts or ends on a boundary. *)
let prop_bulk_copies_bytewise =
  QCheck.Test.make ~count:300 ~name:"bulk copies equal byte-at-a-time copies"
    QCheck.(triple (int_bound 2) (int_bound 300) (int_bound 200))
    (fun (shift, a, len) ->
      let page_bytes = 16 lsl (2 * shift) in
      let fresh () =
        let m = M.create ~page_bytes in
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
      let zeroed = fresh () and expect = fresh () in
      M.fill_zero zeroed a ~bytes:len;
      for i = 0 to len - 1 do
        M.store8 expect (a + i) 0
      done;
      let same x y =
        List.for_all (fun i -> M.load8 x i = M.load8 y i) (List.init 800 Fun.id)
      in
      !loaded && same bulk bytewise && same zeroed expect)

let tests =
  [
    ( "memory",
      [
        Alcotest.test_case "width roundtrips" `Quick test_roundtrip_widths;
        Alcotest.test_case "zero initialized" `Quick test_zero_initialized;
        Alcotest.test_case "page boundary straddling" `Quick
          test_page_boundary;
        Alcotest.test_case "fill_zero across pages" `Quick test_fill_zero;
        Alcotest.test_case "sparse materialization" `Quick test_sparse_pages;
        Alcotest.test_case "out-of-range addresses raise" `Quick
          test_out_of_range;
        Alcotest.test_case "quick mst arm within 600 pages" `Quick
          test_mst_pages;
        QCheck_alcotest.to_alcotest prop_store_load_32;
        QCheck_alcotest.to_alcotest prop_disjoint_writes;
        Alcotest.test_case "bulk copies straddle a page" `Quick
          test_bulk_copy_straddles_page;
        QCheck_alcotest.to_alcotest prop_bulk_copies_bytewise;
      ] );
  ]
