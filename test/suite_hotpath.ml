(* The simulator's no-observer hot path: the TLB against a naive LRU
   model, the fast path on TLB-modelling machines against the reference
   arms, and host-allocation budgets measured with [Gc.minor_words]. *)

module M = Memsim
module Machine = Memsim.Machine
module Tlb = Memsim.Tlb
module Cache = Memsim.Cache
module Hierarchy = Memsim.Hierarchy
module Ccmalloc = Ccsl.Ccmalloc

(* ------------------------------------------------------------------ *)
(* TLB against a naive LRU model                                       *)
(* ------------------------------------------------------------------ *)

(* Each set is a list of pages, most recently used first, at most
   [assoc] long: the textbook LRU the TLB's tick stamps implement. *)
let naive_tlb (cfg : Tlb.config) =
  let sets = cfg.Tlb.entries / cfg.Tlb.assoc in
  let lru = Array.make sets [] in
  let hits = ref 0 and misses = ref 0 in
  let access a =
    let page = a / cfg.Tlb.page_bytes in
    let s = page mod sets in
    let rest = List.filter (fun p -> p <> page) lru.(s) in
    let hit = List.length rest < List.length lru.(s) in
    lru.(s) <- List.filteri (fun i _ -> i < cfg.Tlb.assoc) (page :: rest);
    if hit then begin
      incr hits;
      0
    end
    else begin
      incr misses;
      cfg.Tlb.miss_penalty
    end
  in
  let clear () = Array.fill lru 0 sets [] in
  (access, clear, hits, misses)

let tlb_shapes = [| (4, 4); (8, 2); (8, 1); (16, 4); (64, 64) |]

let prop_tlb_matches_naive_lru =
  QCheck.Test.make ~count:200 ~name:"TLB hits, misses and penalties = naive LRU"
    QCheck.(
      pair (int_bound (Array.length tlb_shapes - 1))
        (list_of_size (Gen.int_range 1 400) (int_bound 200)))
    (fun (shape, ops) ->
      let entries, assoc = tlb_shapes.(shape) in
      let cfg = { Tlb.entries; assoc; page_bytes = 256; miss_penalty = 40 } in
      let tlb = Tlb.create cfg in
      let access, clear, hits, misses = naive_tlb cfg in
      (* op 0 empties both (cold start); otherwise an address spread
         over ~3x more pages than the TLB holds, with offsets inside
         the page so the page-number mapping is exercised too *)
      let penalties_agree =
        List.for_all
          (fun op ->
            if op = 0 then begin
              Tlb.clear tlb;
              clear ();
              true
            end
            else
              let a = (op mod (3 * entries + 1) * 256) + (op * 37 mod 256) in
              Tlb.access tlb a = access a)
          ops
      in
      penalties_agree && Tlb.hits tlb = !hits && Tlb.misses tlb = !misses)

(* With the TLB's [no_tlb] guard gone, TLB-modelling machines take the
   fast path too; it must match the reference arms exactly. *)
let prop_tlb_machine_fast_equals_ref =
  QCheck.Test.make ~count:40
    ~name:"TLB machine: fast path equals reference path"
    QCheck.(
      list_of_size (Gen.int_range 1 300)
        (triple (int_bound 4095) bool (int_bound 65535)))
    (fun ops ->
      let run fast =
        M.Fastpath.with_mode fast (fun () ->
            let m = Machine.create (M.Config.ultrasparc_e5000 ~tlb:true ()) in
            let base = Machine.reserve m ~bytes:(1 lsl 20) ~align:8192 in
            let vals =
              List.map
                (fun (a, store, v) ->
                  (* 256-byte stride over 1 MB: 128 pages, twice the
                     TLB's reach, and every L1 set *)
                  let addr = base + (a * 256) + (v land 0xfc) in
                  if store then begin
                    Machine.store32 m addr v;
                    -1
                  end
                  else Machine.load32 m addr)
                ops
            in
            let h = Machine.hierarchy m in
            ( vals,
              Machine.snapshot m,
              Hierarchy.stats h ))
      in
      run true = run false)

(* ------------------------------------------------------------------ *)
(* Host allocation budgets                                             *)
(* ------------------------------------------------------------------ *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* What measuring an empty thunk costs, so the budgets below are exact. *)
let baseline () = minor_words (fun () -> ())

let test_misses_allocation_free () =
  let m = Machine.create (M.Config.rsim_table1 ()) in
  let l2 = (M.Config.rsim_table1 ()).M.Config.l2 in
  let stride = M.Cache_config.capacity_bytes l2 in
  (* eight blocks one L2 capacity apart share an L1 set and an L2 set
     (2-way): cycling through them misses both levels every time *)
  let base = Machine.reserve m ~bytes:(8 * stride) ~align:stride in
  let sweep n =
    for i = 0 to n - 1 do
      let a = base + (i mod 8 * stride) in
      if i land 1 = 0 then ignore (Machine.load32 m a)
      else Machine.store32 m a i
    done
  in
  (* the first sweep materializes the simulated memory chunks *)
  sweep 16;
  let before = Machine.snapshot m in
  let h = Machine.hierarchy m in
  let l2_misses_before = Cache.misses (Cache.stats (Hierarchy.l2 h)) in
  let words = minor_words (fun () -> sweep 10_000) -. baseline () in
  let l2_misses = Cache.misses (Cache.stats (Hierarchy.l2 h)) - l2_misses_before in
  Alcotest.(check int) "every access missed L2" 10_000 l2_misses;
  Alcotest.(check bool) "cycles were charged" true
    ((Machine.snapshot m).M.Cost.s_total > before.M.Cost.s_total);
  Alcotest.(check (float 0.)) "no host words for 10k L1+L2 misses" 0. words

(* One warmed-up alloc/free pair through the [Allocator.t] interface,
   hinted and unhinted (the [Some hint] is built once, outside the
   measurement: it is the caller's allocation, not the allocator's). *)
let pair_words (a : Alloc.Allocator.t) =
  let anchor = a.Alloc.Allocator.alloc 12 in
  let hint = Some anchor in
  let pair () =
    let x = a.Alloc.Allocator.alloc 12 in
    let y = a.Alloc.Allocator.alloc ?hint 12 in
    a.Alloc.Allocator.free y;
    a.Alloc.Allocator.free x
  in
  for _ = 1 to 100 do
    pair ()
  done;
  minor_words (fun () ->
      for _ = 1 to 1000 do
        pair ()
      done)
  -. baseline ()

let test_alloc_free_allocation_free () =
  let mk () = Machine.create (M.Config.rsim_table1 ()) in
  Alcotest.(check (float 0.)) "malloc" 0.
    (pair_words (Alloc.Malloc.allocator (Alloc.Malloc.create (mk ()))));
  List.iter
    (fun strategy ->
      Alcotest.(check (float 0.))
        ("ccmalloc " ^ Ccmalloc.strategy_name strategy)
        0.
        (pair_words (Ccmalloc.allocator (Ccmalloc.create ~strategy (mk ())))))
    [ Ccmalloc.Closest; Ccmalloc.New_block; Ccmalloc.First_fit ]

let test_health_words_per_access () =
  let placement = Olden.Common.Base in
  let ctx = Olden.Common.make_ctx placement in
  let params =
    { Olden.Health.levels = 3; steps = 100; morph_interval = 50; seed = 5 }
  in
  let words =
    minor_words (fun () ->
        ignore (Olden.Health.run ~params ~measure_whole:true ~ctx placement))
  in
  let h = Machine.hierarchy ctx.Olden.Common.machine in
  let accesses = Cache.accesses (Cache.stats (Hierarchy.l1 h)) in
  let per_access = words /. float_of_int accesses in
  if per_access >= 1.5 then
    Alcotest.failf "%.2f host words per simulated access (budget 1.5)"
      per_access

(* A morph of a 2^14-1-node random BST, per engine: discovery, planning,
   copy and rewrite allocate no per-node list, tuple, closure or
   [Bytes] (the list- and Hashtbl-based morph took 72-101 words per
   node).  What remains is per block (the plan's block arrays) or sized
   to the structure (and then mostly on the major heap). *)
let test_morph_words_per_node () =
  let elem_bytes = 20 and n = (1 lsl 14) - 1 in
  List.iter
    (fun (e : Layout.Engine.t) ->
      let m = Machine.create (M.Config.ultrasparc_e5000 ~tlb:true ()) in
      let t =
        Structures.Bst.build m ~elem_bytes
          ~alloc:(Alloc.Malloc.allocator (Alloc.Malloc.create m))
          (Structures.Bst.Random (Workload.Rng.create 5))
          ~keys:(Array.init n Fun.id)
      in
      let params =
        { Ccsl.Ccmorph.default_params with Ccsl.Ccmorph.cluster = Ccsl.Ccmorph.Engine e }
      in
      let words =
        minor_words (fun () ->
            ignore
              (Ccsl.Ccmorph.morph ~params m
                 (Structures.Bst.desc ~elem_bytes)
                 ~root:t.Structures.Bst.root))
      in
      let per_node = words /. float_of_int n in
      if per_node > 12. then
        Alcotest.failf "%s: %.1f host words per morphed node (budget 12)"
          e.Layout.Engine.name per_node)
    Layout.Engine.builtins

let tests =
  [
    ( "hotpath",
      [
        QCheck_alcotest.to_alcotest prop_tlb_matches_naive_lru;
        QCheck_alcotest.to_alcotest prop_tlb_machine_fast_equals_ref;
        Alcotest.test_case "L1+L2 misses allocate nothing" `Quick
          test_misses_allocation_free;
        Alcotest.test_case "alloc/free pairs allocate nothing" `Quick
          test_alloc_free_allocation_free;
        Alcotest.test_case "health under 1.5 words per access" `Quick
          test_health_words_per_access;
        Alcotest.test_case "morphs under 12 words per node" `Quick
          test_morph_words_per_node;
      ] );
  ]
