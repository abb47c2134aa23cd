(* Tests for the cache-conscious allocator's placement strategies. *)

module Machine = Memsim.Machine
module Config = Memsim.Config
module A = Memsim.Addr
module Ccmalloc = Ccsl.Ccmalloc

(* tiny machine: 64-byte L2 blocks, 1024-byte pages -> 16 blocks/page *)
let mk strategy =
  let m = Machine.create (Config.tiny ()) in
  (m, Ccmalloc.create ~strategy m)

let block_of m a = A.block_index a ~block_bytes:(Machine.l2_block_bytes m)
let page_of m a = A.page_index a ~page_bytes:(Machine.page_bytes m)

let test_same_block_colocation () =
  let m, t = mk Ccmalloc.Closest in
  let parent = Ccmalloc.alloc t 20 in
  let child = Ccmalloc.alloc t ~hint:parent 20 in
  Alcotest.(check int) "same cache block" (block_of m parent) (block_of m child);
  let c = Ccmalloc.counters t in
  Alcotest.(check int) "one hinted" 1 c.Ccmalloc.c_hinted;
  Alcotest.(check int) "... in the hint's block" 1 c.Ccmalloc.c_hinted_same_block

let test_never_straddles () =
  let m, t = mk Ccmalloc.First_fit in
  let last = ref A.null in
  for _ = 1 to 200 do
    let a = Ccmalloc.alloc t ~hint:!last 24 in
    let bb = Machine.l2_block_bytes m in
    if A.offset_in_block a ~block_bytes:bb + 24 > bb then
      Alcotest.fail "object straddles a cache block";
    last := a
  done

let test_closest_picks_nearest () =
  let m, t = mk Ccmalloc.Closest in
  (* 48-byte object + 8-byte header + padding fills block 0 exactly. *)
  let first = Ccmalloc.alloc t 48 in
  Alcotest.(check int) "block 0" 0
    (A.offset_in_page first ~page_bytes:(Machine.page_bytes m)
    / Machine.l2_block_bytes m);
  (* hint block full: closest must pick the adjacent block *)
  let nxt = Ccmalloc.alloc t ~hint:first 48 in
  let hint_block = block_of m first in
  Alcotest.(check int) "adjacent block" (hint_block + 1) (block_of m nxt);
  Alcotest.(check int) "same page" (page_of m first) (page_of m nxt)

let test_new_block_reserves () =
  let m, t = mk Ccmalloc.New_block in
  let x = Ccmalloc.alloc t 16 in
  (* block 0 holds 24 of 64 bytes: a 40-byte (56 with header) hinted
     alloc cannot fit *)
  let y = Ccmalloc.alloc t ~hint:x 40 in
  Alcotest.(check bool) "different block" true (block_of m x <> block_of m y);
  (* the new block was empty before: y's payload sits after its header *)
  Alcotest.(check int) "starts a fresh block" 8
    (A.offset_in_block y ~block_bytes:(Machine.l2_block_bytes m));
  (* a later small hinted alloc can still join x's block *)
  let z = Ccmalloc.alloc t ~hint:x 16 in
  Alcotest.(check int) "reuses hint block" (block_of m x) (block_of m z)

let test_first_fit_scans_from_start () =
  let m, t = mk Ccmalloc.First_fit in
  let b0 = Ccmalloc.alloc t 16 in  (* block 0: 24 of 64 used *)
  let _b0b = Ccmalloc.alloc t ~hint:b0 16 in  (* block 0: 48 used *)
  let far = Ccmalloc.alloc t ~hint:b0 40 in  (* 56-byte unit needs a fresh block *)
  (* first-fit scans from block 0: block 1 is the first with room *)
  Alcotest.(check int) "block 1" (block_of m b0 + 1) (block_of m far)

let test_new_block_opens_more_blocks () =
  (* The §4.4 memory-overhead signal: new-block opens at least as many
     blocks as closest for the same workload. *)
  let run strategy =
    let _, t = mk strategy in
    let last = ref A.null in
    for i = 1 to 300 do
      let a =
        if i mod 7 = 0 then Ccmalloc.alloc t 16
        else Ccmalloc.alloc t ~hint:!last 16
      in
      last := a
    done;
    (Ccmalloc.counters t).Ccmalloc.c_blocks_opened
  in
  let nb = run Ccmalloc.New_block in
  let cl = run Ccmalloc.Closest in
  let ff = run Ccmalloc.First_fit in
  Alcotest.(check bool) "new-block >= closest" true (nb >= cl);
  Alcotest.(check bool) "new-block >= first-fit" true (nb >= ff)

let test_null_hint_sequential () =
  let m, t = mk Ccmalloc.New_block in
  let x = Ccmalloc.alloc t 20 in
  let y = Ccmalloc.alloc t 20 in
  Alcotest.(check int) "same block, packed" (block_of m x) (block_of m y);
  Alcotest.(check int) "no hinted allocs recorded" 0
    (Ccmalloc.counters t).Ccmalloc.c_hinted

let test_foreign_hint_ignored () =
  let m, t = mk Ccmalloc.Closest in
  (* hint pointing into non-ccmalloc memory must not blow up *)
  let foreign = Machine.reserve m ~bytes:64 ~align:64 in
  let a = Ccmalloc.alloc t ~hint:foreign 20 in
  Alcotest.(check bool) "allocated fine" true (a > 0)

(* An object whose header and payload exceed a block is refused before
   the allocator charges a cycle, moves a counter or reserves memory;
   the widest object that fits (56 bytes, 64 with its header) is
   placed. *)
let test_wide_objects_rejected () =
  let m, t = mk Ccmalloc.New_block in
  let x = Ccmalloc.alloc t 20 in
  let cycles = Machine.cycles m
  and reserved = Machine.reserved_bytes m
  and c = Ccmalloc.counters t in
  List.iter
    (fun (what, hint, bytes) ->
      Alcotest.check_raises what
        (Invalid_argument
           "Ccmalloc.alloc: header + payload wider than a cache block")
        (fun () -> ignore (Ccmalloc.alloc t ~hint bytes));
      Alcotest.(check int) (what ^ ": cycles") cycles (Machine.cycles m);
      Alcotest.(check int) (what ^ ": reserved bytes") reserved
        (Machine.reserved_bytes m);
      Alcotest.(check bool) (what ^ ": counters") true
        (Ccmalloc.counters t = c))
    [ ("57 bytes", A.null, 57); ("hinted 57 bytes", x, 57);
      ("200 bytes", A.null, 200) ];
  let widest = Ccmalloc.alloc t 56 in
  Alcotest.(check int) "56 bytes fill a block" 8
    (A.offset_in_block widest ~block_bytes:(Machine.l2_block_bytes m))

let test_free_lifo () =
  let m, t = mk Ccmalloc.Closest in
  let x = Ccmalloc.alloc t 20 in
  let y = Ccmalloc.alloc t ~hint:x 20 in
  Ccmalloc.free t y;
  let z = Ccmalloc.alloc t ~hint:x 20 in
  Alcotest.(check int) "LIFO slot reused" y z;
  ignore m

(* Regression: a block whose bump pointer was rolled back to 0 by a LIFO
   free must not be counted as opened again by the next allocation. *)
let test_blocks_opened_not_double_counted () =
  let m, t = mk Ccmalloc.New_block in
  let blocks () = (Ccmalloc.counters t).Ccmalloc.c_blocks_opened in
  let x = Ccmalloc.alloc t 20 in
  Alcotest.(check int) "one block opened" 1 (blocks ());
  Ccmalloc.free t x;
  let y = Ccmalloc.alloc t 20 in
  Alcotest.(check int) "same block reused" (block_of m x) (block_of m y);
  Alcotest.(check int) "still one block opened" 1 (blocks ())

(* Regression: freed slots inside pages that received hinted allocations
   must not be recycled (or bump-filled) by hint-less allocations — a
   cold object mid-structure silently undoes co-location.  The slot must
   remain available to hinted allocations. *)
let test_cold_alloc_avoids_hint_pages () =
  let m, t = mk Ccmalloc.New_block in
  let x = Ccmalloc.alloc t 40 in  (* page A, block 0 *)
  let y1 = Ccmalloc.alloc t ~hint:x 16 in  (* page A now hinted *)
  let y2 = Ccmalloc.alloc t ~hint:y1 16 in  (* same block as y1 *)
  Alcotest.(check int) "chain co-located" (block_of m y1) (block_of m y2);
  Ccmalloc.free t y1;  (* non-LIFO: a freed slot inside a hinted page *)
  let cold = Ccmalloc.alloc t 16 in
  Alcotest.(check bool) "cold alloc avoids the hinted page" true
    (page_of m cold <> page_of m x);
  (* ... while a hinted allocation still reclaims the slot *)
  let w = Ccmalloc.alloc t ~hint:y2 16 in
  Alcotest.(check int) "hinted alloc reclaims the freed slot" y1 w

let prop_all_allocations_disjoint =
  QCheck.Test.make ~count:50 ~name:"ccmalloc allocations never overlap"
    QCheck.(
      pair (int_bound 2)
        (list_of_size (Gen.int_range 1 150) (pair bool (int_range 1 56))))
    (fun (strat, plan) ->
      let strategy =
        match strat with
        | 0 -> Ccmalloc.Closest
        | 1 -> Ccmalloc.New_block
        | _ -> Ccmalloc.First_fit
      in
      let _, t = mk strategy in
      let live = ref [] in
      let last = ref A.null in
      List.iter
        (fun (hinted, sz) ->
          let a =
            if hinted && not (A.is_null !last) then
              Ccmalloc.alloc t ~hint:!last sz
            else Ccmalloc.alloc t sz
          in
          live := (a, sz) :: !live;
          last := a)
        plan;
      let rec pairs = function
        | [] -> true
        | (x, sx) :: rest ->
            List.for_all (fun (y, sy) -> x + sx <= y || y + sy <= x) rest
            && pairs rest
      in
      pairs !live)

(* The documented accounting identity, checked through the same code the
   sanitizer's counter-identity rule uses: every hinted allocation must be
   accounted for as either a same-page strategy placement or a fallback,
   under every strategy and any interleaving of hinted, unhinted and
   foreign-hinted allocations and frees.  Sizes stop at 56 bytes, the
   widest object a 64-byte block holds with its header; kind 4 asks for
   a wider one, which must be refused without moving a counter. *)
let prop_counter_identity =
  QCheck.Test.make ~count:100
    ~name:"ccmalloc counter identity holds under all strategies"
    QCheck.(
      pair (int_bound 2)
        (list_of_size (Gen.int_range 1 200) (pair (int_bound 4) (int_range 1 56))))
    (fun (strat, plan) ->
      let strategy =
        match strat with
        | 0 -> Ccmalloc.Closest
        | 1 -> Ccmalloc.New_block
        | _ -> Ccmalloc.First_fit
      in
      let m, t = mk strategy in
      (* an address ccmalloc does not manage, for foreign hints *)
      let foreign = Machine.reserve m ~bytes:64 ~align:64 in
      let last = ref A.null in
      let live = ref [] in
      let unmanaged_hints = ref 0 in
      let rejected = ref true in
      List.iter
        (fun (kind, sz) ->
          match kind with
          | 0 -> last := Ccmalloc.alloc t sz
          | 1 ->
              last :=
                if A.is_null !last then Ccmalloc.alloc t sz
                else Ccmalloc.alloc t ~hint:!last sz;
              live := !last :: !live
          | 2 ->
              incr unmanaged_hints;
              last := Ccmalloc.alloc t ~hint:foreign sz
          | 3 -> (
              match !live with
              | [] -> ()
              | a :: rest ->
                  Ccmalloc.free t a;
                  live := rest)
          | _ -> (
              (* wider than the 64-byte block, hinted or not *)
              let before = Ccmalloc.counters t in
              match Ccmalloc.alloc t ~hint:!last (sz + 56) with
              | _ -> rejected := false
              | exception Invalid_argument _ ->
                  if Ccmalloc.counters t <> before then rejected := false))
        plan;
      let c = Ccmalloc.counters t in
      !rejected
      && Analyze.Shadow.check_counters c = []
      && c.Ccmalloc.c_hinted
         = c.Ccmalloc.c_hinted_same_page + c.Ccmalloc.c_strategy_fallbacks
      (* every unmanaged hint came from the foreign address *)
      && c.Ccmalloc.c_hint_unmanaged = !unmanaged_hints)

let tests =
  [
    ( "ccmalloc",
      [
        Alcotest.test_case "same-block co-location" `Quick
          test_same_block_colocation;
        Alcotest.test_case "never straddles blocks" `Quick test_never_straddles;
        Alcotest.test_case "closest picks nearest block" `Quick
          test_closest_picks_nearest;
        Alcotest.test_case "new-block reserves empty blocks" `Quick
          test_new_block_reserves;
        Alcotest.test_case "first-fit scans from page start" `Quick
          test_first_fit_scans_from_start;
        Alcotest.test_case "new-block opens more blocks" `Quick
          test_new_block_opens_more_blocks;
        Alcotest.test_case "null hint is sequential" `Quick
          test_null_hint_sequential;
        Alcotest.test_case "foreign hint tolerated" `Quick
          test_foreign_hint_ignored;
        Alcotest.test_case "objects wider than a block" `Quick
          test_wide_objects_rejected;
        Alcotest.test_case "LIFO free" `Quick test_free_lifo;
        Alcotest.test_case "blocks_opened not double-counted" `Quick
          test_blocks_opened_not_double_counted;
        Alcotest.test_case "cold alloc avoids hint pages" `Quick
          test_cold_alloc_avoids_hint_pages;
        QCheck_alcotest.to_alcotest prop_all_allocations_disjoint;
        QCheck_alcotest.to_alcotest prop_counter_identity;
      ] );
  ]
