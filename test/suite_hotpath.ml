(* The simulator's hot path: the TLB, each cache level and whole
   machines against naive textbook models, and host-allocation budgets
   measured with [Gc.minor_words]. *)

module M = Memsim
module Machine = Memsim.Machine
module Tlb = Memsim.Tlb
module Cache = Memsim.Cache
module CC = Memsim.Cache_config
module Hierarchy = Memsim.Hierarchy
module Ccmalloc = Ccsl.Ccmalloc

(* ------------------------------------------------------------------ *)
(* TLB against a naive LRU model                                       *)
(* ------------------------------------------------------------------ *)

(* Each set is a list of pages, most recently used first, at most
   [assoc] long: textbook LRU, sharing no recency list, way index or
   page table with [Tlb]. *)
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
  let reset_stats () =
    hits := 0;
    misses := 0
  in
  (access, clear, reset_stats, hits, misses)

let tlb_shapes = [| (4, 4); (8, 2); (8, 1); (16, 4); (64, 64); (128, 32) |]

type tlb_op =
  | Translate of int  (* page index, before striding *)
  | Clear  (* empties both models: a cold start *)
  | Reset_stats  (* counters restart, entries persist *)

let gen_tlb_case =
  QCheck.Gen.(
    triple
      (int_bound (Array.length tlb_shapes - 1))
      (* log2 of the page stride: 0 is dense page numbers; the others
         are sparse ones that a hashed page index sees as large keys *)
      (oneofl [ 0; 12; 20; 32 ])
      (list_size (int_range 1 400)
         (frequency
            [
              (1, return Clear);
              (1, return Reset_stats);
              (80, map (fun i -> Translate i) (int_bound 1000));
            ])))

let print_tlb_op = function
  | Translate i -> Printf.sprintf "Translate %d" i
  | Clear -> "Clear"
  | Reset_stats -> "Reset_stats"

let prop_tlb_matches_naive_lru =
  QCheck.Test.make ~count:300 ~name:"TLB hits, misses and penalties = naive LRU"
    (QCheck.make
       ~print:QCheck.Print.(triple int int (list print_tlb_op))
       gen_tlb_case)
    (fun (shape, stride_log, ops) ->
      let entries, assoc = tlb_shapes.(shape) in
      let cfg = { Tlb.entries; assoc; page_bytes = 256; miss_penalty = 40 } in
      let tlb = Tlb.create cfg in
      let access, clear, reset_stats, hits, misses = naive_tlb cfg in
      (* page indices spread over ~3x more pages than the TLB holds; a
         strided page number keeps the index's low two bits, so the
         set-associative shapes still spread over several sets.  The
         offset inside the page exercises the page-number mapping. *)
      let address i =
        let i = i mod ((3 * entries) + 1) in
        let page = (i lsl stride_log) lor (i land 3) in
        (page * 256) + (i * 37 mod 256)
      in
      let agree = function
        | Clear ->
            Tlb.clear tlb;
            clear ();
            true
        | Reset_stats ->
            Tlb.reset_stats tlb;
            reset_stats ();
            true
        | Translate i ->
            let a = address i in
            Tlb.access tlb a = access a
            && Tlb.hits tlb = !hits
            && Tlb.misses tlb = !misses
      in
      List.for_all agree ops && Tlb.hits tlb = !hits && Tlb.misses tlb = !misses)

(* ------------------------------------------------------------------ *)
(* Caches and machines against a naive two-level model                 *)
(* ------------------------------------------------------------------ *)

(* Textbook LRU: each set is a list of (block, dirty) pairs, most
   recently used first, at most [assoc] long.  A miss in a full set
   evicts the last pair and writes it back if it is dirty; a write
   dirties its block only under write-back.  An install of an absent
   block fills like a clean read miss but counts no demand access (and
   a prefetch install counts itself); an install of a resident block
   changes nothing.  No way indices, no tick stamps: nothing shared with
   [Cache]. *)
let naive_cache (cfg : CC.t) =
  let lru = Array.make cfg.CC.sets [] in
  let s =
    {
      Cache.reads = 0;
      writes = 0;
      read_misses = 0;
      write_misses = 0;
      evictions = 0;
      writebacks = 0;
      prefetch_installs = 0;
    }
  in
  let fill set blk ~dirty =
    let kept =
      if List.length lru.(set) < cfg.CC.assoc then lru.(set)
      else
        match List.rev lru.(set) with
        | (_, dirty) :: older ->
            s.Cache.evictions <- s.Cache.evictions + 1;
            if dirty then s.Cache.writebacks <- s.Cache.writebacks + 1;
            List.rev older
        | [] -> []
    in
    lru.(set) <- (blk, dirty) :: kept
  in
  let access ~write a =
    let dirties = write && cfg.CC.policy = CC.Write_back in
    let blk = a / cfg.CC.block_bytes in
    let set = blk mod cfg.CC.sets in
    if write then s.Cache.writes <- s.Cache.writes + 1
    else s.Cache.reads <- s.Cache.reads + 1;
    match List.assoc_opt blk lru.(set) with
    | Some dirty ->
        lru.(set) <- (blk, dirty || dirties) :: List.remove_assoc blk lru.(set);
        true
    | None ->
        if write then s.Cache.write_misses <- s.Cache.write_misses + 1
        else s.Cache.read_misses <- s.Cache.read_misses + 1;
        fill set blk ~dirty:dirties;
        false
  in
  let install ~prefetch a =
    let blk = a / cfg.CC.block_bytes in
    let set = blk mod cfg.CC.sets in
    if not (List.mem_assoc blk lru.(set)) then begin
      fill set blk ~dirty:false;
      if prefetch then
        s.Cache.prefetch_installs <- s.Cache.prefetch_installs + 1
    end
  in
  (access, install, s)

(* Every shape the straight-line and scanning set paths take: 2-way,
   direct-mapped and wider sets, each under both write policies, and
   the 16-way sets of the profiling machine's L2. *)
let cache_shapes =
  [|
    CC.v ~name:"2-way" ~sets:4 ~assoc:2 ~block_bytes:16 ();
    CC.v ~name:"full" ~sets:1 ~assoc:8 ~block_bytes:16 ();
    CC.v ~name:"16-way" ~sets:2 ~assoc:16 ~block_bytes:16 ();
    CC.v ~policy:CC.Write_through ~name:"direct" ~sets:8 ~assoc:1
      ~block_bytes:32 ();
    CC.v ~policy:CC.Write_through ~name:"4-way" ~sets:2 ~assoc:4
      ~block_bytes:16 ();
    CC.v ~name:"direct write-back" ~sets:8 ~assoc:1 ~block_bytes:64 ();
    CC.v ~policy:CC.Write_through ~name:"2-way write-through" ~sets:4
      ~assoc:2 ~block_bytes:16 ();
  |]

(* Op kinds 0-3 read, 4-5 write, 6 installs and 7 installs as a
   prefetch, the way the MSHRs' completed fills reach the L2. *)
let prop_cache_matches_naive_lru =
  QCheck.Test.make ~count:200 ~name:"cache access = naive LRU cache"
    QCheck.(
      pair
        (int_bound (Array.length cache_shapes - 1))
        (list_of_size (Gen.int_range 1 300)
           (pair (int_bound 2047) (int_bound 7))))
    (fun (shape, ops) ->
      let cfg = cache_shapes.(shape) in
      let c = Cache.create cfg in
      let access, install, s = naive_cache cfg in
      List.for_all
        (fun (a, kind) ->
          let a = a * 4 in
          if kind >= 6 then begin
            let prefetch = kind = 7 in
            Cache.install c ~prefetch a;
            install ~prefetch a;
            true
          end
          else
            let write = kind >= 4 in
            Cache.access c ~write a = access ~write a)
        ops
      && Cache.stats c = s)

(* Two naive caches, the naive TLB and the configured latencies: an
   access costs the TLB penalty plus the L1 hit time, plus the L1 miss
   time when the L1 misses, plus the L2 miss time when the L2 misses
   too.  No prefetching (the configurations below have none).  Memory
   is a [Hashtbl] of 32-bit words. *)
let naive_machine (cfg : M.Config.t) =
  let l1, _, s1 = naive_cache cfg.M.Config.l1 in
  let l2, _, s2 = naive_cache cfg.M.Config.l2 in
  let tlb = Option.map naive_tlb cfg.M.Config.tlb in
  let lat = cfg.M.Config.latencies in
  let load_stall = ref 0 and store_stall = ref 0 and busy = ref 0 in
  let mem = Hashtbl.create 64 in
  let access ~write a =
    let penalty = match tlb with None -> 0 | Some (f, _, _, _, _) -> f a in
    let l =
      if l1 ~write a then lat.Hierarchy.l1_hit
      else if l2 ~write a then lat.Hierarchy.l1_hit + lat.Hierarchy.l1_miss
      else lat.Hierarchy.l1_hit + lat.Hierarchy.l1_miss + lat.Hierarchy.l2_miss
    in
    incr busy;
    let stall = if write then store_stall else load_stall in
    stall := !stall + penalty + l - 1
  in
  let load a =
    access ~write:false a;
    Option.value (Hashtbl.find_opt mem a) ~default:0
  in
  let store a v =
    access ~write:true a;
    Hashtbl.replace mem a (v land 0xffffffff)
  in
  let snapshot () =
    {
      M.Cost.s_busy = !busy;
      s_load_stall = !load_stall;
      s_store_stall = !store_stall;
      s_prefetch_issue = 0;
      s_total = !busy + !load_stall + !store_stall;
    }
  in
  let tlb_counts () =
    Option.map (fun (_, _, _, hits, misses) -> (!hits, !misses)) tlb
  in
  (load, store, snapshot, tlb_counts, s1, s2)

(* Runs [ops] on a fresh machine and on the naive model side by side.
   Addresses fall in [rows] rows one L1 capacity apart, spanning four L2
   capacities, so both levels see conflict misses, evictions and (in
   the write-back L2) writebacks; an op whose low two bits are 0 stays
   in the previous op's L1 block, so it hits the L1, and one whose low
   two bits are 1 takes the last word of a page in the same span, the
   last offset the machine reads inline.  Simulated memory starts
   empty, so each page's first access, often at its last word, is a
   first touch of an untouched page.  Kind 0 loads, 1 loads
   sign-extended, 2 stores [v]. *)
let machine_matches_naive cfg ops =
  let m = Machine.create cfg in
  let load, store, snapshot, tlb_counts, s1, s2 = naive_machine cfg in
  let b1 = cfg.M.Config.l1.CC.block_bytes in
  let page = cfg.M.Config.page_bytes in
  let stride = CC.capacity_bytes cfg.M.Config.l1 in
  let rows = 4 * CC.capacity_bytes cfg.M.Config.l2 / stride in
  let base = Machine.reserve m ~bytes:(rows * stride) ~align:stride in
  let pages = rows * stride / page in
  let prev = ref base in
  let agree =
    List.for_all
      (fun (x, kind, v) ->
        let a =
          match x land 3 with
          | 0 -> !prev - (!prev land (b1 - 1)) + ((x lsr 2) * 4 land (b1 - 1))
          | 1 -> base + ((x lsr 2) mod pages * page) + page - 4
          | _ ->
              base + ((x lsr 2) mod rows * stride) + ((x lsr 12) * 4 land 255)
        in
        prev := a;
        match kind with
        | 0 -> Machine.load32 m a = load a
        | 1 ->
            let w = load a in
            Machine.load32s m a
            = if w land 0x80000000 <> 0 then w - 0x100000000 else w
        | _ ->
            Machine.store32 m a v;
            store a v;
            true)
      ops
  in
  let h = Machine.hierarchy m in
  agree
  && Machine.snapshot m = snapshot ()
  && Machine.cycles m = (snapshot ()).M.Cost.s_total
  && Cache.stats (Hierarchy.l1 h) = s1
  && Cache.stats (Hierarchy.l2 h) = s2
  && Option.map (fun t -> (Tlb.hits t, Tlb.misses t)) (Hierarchy.tlb h)
     = tlb_counts ()

(* Unshrunk: each shrink step builds a machine, and a failing 300-op
   stream takes minutes to shrink. *)
let machine_ops =
  QCheck.(
    set_shrink Shrink.nil
      (list_of_size (Gen.int_range 1 300)
         (triple (int_bound (1 lsl 20)) (int_bound 2) int)))

let prop_machine_matches_naive =
  QCheck.Test.make ~count:100 ~name:"machine = naive two-level model"
    QCheck.(pair bool machine_ops)
    (fun (rsim, ops) ->
      machine_matches_naive
        (if rsim then M.Config.rsim_table1 () else M.Config.tiny ())
        ops)

let prop_tlb_machine_matches_naive =
  QCheck.Test.make ~count:60 ~name:"TLB machine = naive two-level model"
    machine_ops
    (machine_matches_naive (M.Config.ultrasparc_e5000 ~tlb:true ()))

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
  (* the first sweep materializes the simulated memory pages *)
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

(* The same arm with the locality profilers subscribed, on the machine
   [ccsl-cli profile] uses: the observers add no per-access boxes (the
   Hashtbl-based profilers took ~6 words per access). *)
let test_profiled_health_words_per_access () =
  let placement = Olden.Common.Base in
  let config = Harness.Profiles.default_config placement in
  let ctx = Olden.Common.make_ctx ~config placement in
  let m = ctx.Olden.Common.machine in
  let profile = Obs.Profile.for_machine m in
  let sub = Obs.Profile.attach profile m in
  let params =
    { Olden.Health.levels = 3; steps = 100; morph_interval = 50; seed = 5 }
  in
  let words =
    minor_words (fun () ->
        ignore (Olden.Health.run ~params ~measure_whole:true ~ctx placement))
  in
  Machine.unsubscribe m sub;
  let accesses = Obs.Profile.Reuse.accesses profile.Obs.Profile.reuse in
  let per_access = words /. float_of_int accesses in
  if per_access >= 1.5 then
    Alcotest.failf
      "%.2f host words per profiled access (budget 1.5)" per_access

(* A morph of a 2^14-1-node random BST, per engine: discovery, planning,
   copy and rewrite allocate no per-node list, tuple, closure or
   [Bytes] (the list- and Hashtbl-based morph took 72-101 words per
   node).  What remains is sized to the structure, and then mostly on
   the major heap: 0.080-0.082 words per node for every engine (the
   weighted engine's heap reads each weight from its float array, so no
   push boxes one).  The budget is 0.2: the largest engine's figure with
   a margin of about 0.12, well below the 1.37 a boxed float per push
   costs. *)
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
      if per_node > 0.2 then
        Alcotest.failf "%s: %.3f host words per morphed node (budget 0.2)"
          e.Layout.Engine.name per_node)
    Layout.Engine.builtins

let tests =
  [
    ( "hotpath",
      [
        QCheck_alcotest.to_alcotest prop_tlb_matches_naive_lru;
        QCheck_alcotest.to_alcotest prop_cache_matches_naive_lru;
        QCheck_alcotest.to_alcotest prop_machine_matches_naive;
        QCheck_alcotest.to_alcotest prop_tlb_machine_matches_naive;
        Alcotest.test_case "L1+L2 misses allocate nothing" `Quick
          test_misses_allocation_free;
        Alcotest.test_case "morphs under 0.2 words per node" `Quick
          test_morph_words_per_node;
        Alcotest.test_case "alloc/free pairs allocate nothing" `Quick
          test_alloc_free_allocation_free;
        Alcotest.test_case "health under 1.5 words per access" `Quick
          test_health_words_per_access;
        Alcotest.test_case "profiled health under 1.5 words per access"
          `Quick test_profiled_health_words_per_access;
      ] );
  ]
