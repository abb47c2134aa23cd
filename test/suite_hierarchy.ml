(* Tests for the two-level hierarchy, TLB and machine cost accounting. *)

module H = Memsim.Hierarchy
module CC = Memsim.Cache_config
module Machine = Memsim.Machine
module Config = Memsim.Config

let lat = { H.l1_hit = 1; l1_miss = 6; l2_miss = 64 }

let mk ?tlb ?hw_prefetch () =
  H.create ?tlb ?hw_prefetch
    ~l1:(CC.v ~policy:CC.Write_through ~name:"l1" ~sets:4 ~assoc:1 ~block_bytes:16 ())
    ~l2:(CC.v ~name:"l2" ~sets:16 ~assoc:1 ~block_bytes:64 ())
    ~latencies:lat ()

let test_latency_chain () =
  let h = mk () in
  Alcotest.(check int) "both miss" 71 (H.access h ~now:0 ~write:false 0);
  Alcotest.(check int) "l1 hit" 1 (H.access h ~now:71 ~write:false 0);
  (* same L2 block, different L1 block: L1 miss, L2 hit *)
  Alcotest.(check int) "l2 hit" 7 (H.access h ~now:72 ~write:false 16)

let test_inclusion_fill () =
  let h = mk () in
  ignore (H.access h ~now:0 ~write:false 0);
  Alcotest.(check bool) "in l1" true (Memsim.Cache.probe (H.l1 h) 0);
  Alcotest.(check bool) "in l2" true (Memsim.Cache.probe (H.l2 h) 0)

let test_sw_prefetch () =
  let h = mk () in
  H.prefetch h ~now:0 128;
  Alcotest.(check int) "one pending" 1 (H.pending_prefetches h);
  (* accessed long after completion: only the L1 fill remains (1 + 6) *)
  Alcotest.(check int) "fully hidden" 7 (H.access h ~now:1000 ~write:false 128);
  Alcotest.(check int) "consumed" 0 (H.pending_prefetches h);
  (* prefetch consumed too early hides only part of the latency *)
  H.prefetch h ~now:1000 512;
  (* completion at 1070; access at 1040 stalls 30 more: 1 + 6 + 30 *)
  Alcotest.(check int) "partially hidden" 37 (H.access h ~now:1040 ~write:false 512);
  (* duplicate prefetches of a cached block are no-ops *)
  H.prefetch h ~now:2000 128;
  Alcotest.(check int) "no-op on cached block" 0 (H.pending_prefetches h)

let test_sw_prefetch_mshr_limit () =
  let h = mk () in
  for i = 0 to 9 do
    H.prefetch h ~now:0 (i * 4096)
  done;
  Alcotest.(check int) "capped at 8 MSHRs" 8 (H.pending_prefetches h);
  Alcotest.(check int) "two dropped" 2 (H.sw_prefetches_dropped h);
  (* once fills complete, new prefetches can be accepted again *)
  H.prefetch h ~now:10_000 (100 * 4096);
  Alcotest.(check bool) "accepted after drain" true
    (H.pending_prefetches h >= 1)

let test_hw_prefetch_next_line () =
  let h = mk ~hw_prefetch:true () in
  (* demand miss on block 0 schedules L2 block 64 for cycle 70 *)
  ignore (H.access h ~now:0 ~write:false 0);
  Alcotest.(check int) "one hw prefetch" 1 (H.hw_prefetches h);
  (* access at cycle 200: fill long complete, L1 miss + L2 hit *)
  Alcotest.(check int) "next line is an L2 hit" 7 (H.access h ~now:200 ~write:false 64);
  (* immediate access instead would have stalled for the remainder *)
  let h2 = mk ~hw_prefetch:true () in
  ignore (H.access h2 ~now:0 ~write:false 0);
  let c = H.access h2 ~now:40 ~write:false 64 in
  Alcotest.(check bool) "early access only partially hidden" true
    (c > 7 && c < 71)

let test_hw_prefetch_useless_for_pointers () =
  let h = mk ~hw_prefetch:true () in
  (* strided "pointer chase" across distant blocks gains nothing *)
  let c1 = H.access h ~now:0 ~write:false 0 in
  let c2 = H.access h ~now:c1 ~write:false 4096 in
  let c3 = H.access h ~now:(c1 + c2) ~write:false 9216 in
  Alcotest.(check int) "all full misses" (3 * 71) (c1 + c2 + c3)

let test_access_range_straddle () =
  let h = mk () in
  (* 8 bytes starting 4 bytes before an L1 block boundary: two L1 blocks *)
  let c = H.access_range h ~now:0 ~write:false 12 ~bytes:8 in
  (* both in same L2 block: 71 (first, both miss) + 7 (L1 miss, L2 hit) *)
  Alcotest.(check int) "straddling pays twice" 78 c;
  let c2 = H.access_range h ~now:c ~write:false 12 ~bytes:8 in
  Alcotest.(check int) "warm straddle" 2 c2

let test_tlb () =
  let tlb = { Memsim.Tlb.entries = 2; assoc = 2; page_bytes = 4096; miss_penalty = 30 } in
  let h = mk ~tlb () in
  let c1 = H.access h ~now:0 ~write:false 0 in
  Alcotest.(check int) "tlb miss adds penalty" (71 + 30) c1;
  let c2 = H.access h ~now:c1 ~write:false 4 in
  Alcotest.(check int) "tlb hit adds nothing" 1 c2;
  (* touch two more pages (chosen to land in L2 sets 1 and 2, leaving
     page 0's L2 block resident) to evict page 0 from the 2-entry TLB *)
  ignore (H.access h ~now:200 ~write:false 4160);
  ignore (H.access h ~now:400 ~write:false 8320);
  let c3 = H.access h ~now:600 ~write:false 8 in
  (* L1 set 0 was reclaimed by those accesses but the L2 block survives:
     1 (hit) + 6 (L1 miss) + 30 (TLB re-miss) *)
  Alcotest.(check int) "page 0 re-misses in tlb" 37 c3;
  (* a non-positive way count is rejected up front, as Cache_config.v
     rejects it: 0 would divide by zero, and -4 divides 64 *)
  List.iter
    (fun assoc ->
      Alcotest.check_raises
        (Printf.sprintf "assoc %d rejected" assoc)
        (Invalid_argument "Tlb.create: assoc must be positive and divide entries")
        (fun () -> ignore (Memsim.Tlb.create { tlb with entries = 64; assoc })))
    [ 0; -4 ]

let test_machine_cost_split () =
  let m = Machine.create (Config.tiny ()) in
  let a = Machine.reserve m ~bytes:64 ~align:64 in
  ignore (Machine.load32 m a);
  let s = Machine.snapshot m in
  Alcotest.(check int) "1 busy" 1 s.Memsim.Cost.s_busy;
  Alcotest.(check int) "70 load stall" 70 s.Memsim.Cost.s_load_stall;
  Machine.store32 m a 5;
  let s = Machine.snapshot m in
  Alcotest.(check int) "store hit adds busy only" 2 s.Memsim.Cost.s_busy;
  Alcotest.(check int) "no store stall on hit" 0 s.Memsim.Cost.s_store_stall

let test_machine_prefetch_cost () =
  let m = Machine.create (Config.tiny ()) in
  let a = Machine.reserve m ~bytes:64 ~align:64 in
  Machine.prefetch m a;
  let s = Machine.snapshot m in
  Alcotest.(check int) "prefetch costs 1 issue cycle" 1
    s.Memsim.Cost.s_prefetch_issue;
  (* give the fill time to complete, then load: L1 miss + L2 hit only *)
  Machine.busy m 100;
  ignore (Machine.load32 m a);
  let s = Machine.snapshot m in
  Alcotest.(check int) "stall only for the L1 fill" 6
    s.Memsim.Cost.s_load_stall;
  (* an immediate prefetch+load pair hides almost nothing *)
  let b = Machine.reserve m ~bytes:64 ~align:64 in
  Machine.prefetch m b;
  ignore (Machine.load32 m b);
  let s2 = Machine.snapshot m in
  Alcotest.(check bool) "immediate use barely helped" true
    (s2.Memsim.Cost.s_load_stall - s.Memsim.Cost.s_load_stall >= 69);
  (* null prefetch is free and legal *)
  Machine.prefetch m 0;
  let s3 = Machine.snapshot m in
  Alcotest.(check int) "null prefetch skipped" 2 s3.Memsim.Cost.s_prefetch_issue

let test_machine_reserve_disjoint () =
  let m = Machine.create (Config.tiny ()) in
  let a = Machine.reserve m ~bytes:100 ~align:8 in
  let b = Machine.reserve m ~bytes:100 ~align:8 in
  Alcotest.(check bool) "disjoint" true (b >= a + 100);
  let p = Machine.reserve_pages m 2 in
  Alcotest.(check bool) "page aligned" true
    (Memsim.Addr.is_aligned p (Machine.page_bytes m));
  Alcotest.(check bool) "null never handed out" true (a > 0)

let test_mshr_config () =
  let m = Machine.create (Config.tiny ~mshrs:2 ()) in
  let h = Machine.hierarchy m in
  for i = 0 to 5 do
    Machine.prefetch m (Machine.reserve m ~bytes:64 ~align:64 + (i * 0))
  done;
  Alcotest.(check int) "capped at 2" 2 (H.pending_prefetches h)

let test_prefetch_telemetry () =
  let m = Machine.create (Config.tiny ()) in
  let a = Machine.reserve m ~bytes:64 ~align:64 in
  Machine.prefetch m a;
  Machine.busy m 200;
  ignore (Machine.load32 m a);
  let consumed, saved = H.prefetches_consumed (Machine.hierarchy m) in
  Alcotest.(check int) "one consumed" 1 consumed;
  Alcotest.(check int) "full latency hidden" 64 saved

let test_reset_and_cold_start () =
  let m = Machine.create (Config.tiny ()) in
  let a = Machine.reserve m ~bytes:64 ~align:64 in
  ignore (Machine.load32 m a);
  Machine.reset_measurement m;
  Alcotest.(check int) "cycles zeroed" 0 (Machine.cycles m);
  ignore (Machine.load32 m a);
  Alcotest.(check int) "cache contents survive reset" 1 (Machine.cycles m);
  Machine.cold_start m;
  ignore (Machine.load32 m a);
  Alcotest.(check int) "cold start empties caches" 71 (Machine.cycles m)

let prop_cycles_monotone =
  QCheck.Test.make ~count:100 ~name:"cycle counter is monotone"
    QCheck.(list_of_size (Gen.int_range 1 100) (int_bound 10_000))
    (fun addrs ->
      let m = Machine.create (Config.tiny ()) in
      let base = Machine.reserve m ~bytes:65536 ~align:64 in
      let prev = ref 0 in
      List.for_all
        (fun a ->
          ignore (Machine.load32 m (base + (a * 4)));
          let c = Machine.cycles m in
          let ok = c > !prev in
          prev := c;
          ok)
        addrs)

(* Direct-mapped caches subscribed to a run see its access stream as it
   happens: the miss-rate-versus-capacity curve the ablations' miss-curves
   row measures. *)
let test_trace_miss_curve () =
  let m = Machine.create (Config.tiny ()) in
  let caches =
    List.map
      (fun capacity_bytes ->
        Memsim.Cache.create
          (Memsim.Cache_config.of_capacity ~name:"curve" ~capacity_bytes
             ~assoc:1 ~block_bytes:64 ()))
      [ 8192; 32768; 65536 ]
  in
  let sub =
    Machine.subscribe m (fun write a ->
        List.iter (fun c -> ignore (Memsim.Cache.access c ~write a)) caches)
  in
  let base = Machine.reserve m ~bytes:65536 ~align:64 in
  (* two sweeps over 32 KB: the second sweep hits iff capacity >= 32 KB *)
  for _ = 1 to 2 do
    for i = 0 to 511 do
      ignore (Machine.load32 m (base + (i * 64)))
    done
  done;
  Machine.unsubscribe m sub;
  Alcotest.(check (list (float 1e-12)))
    "8 KB misses every access, 32 KB and 64 KB only the first sweep"
    [ 1.0; 0.5; 0.5 ]
    (List.map (fun c -> Memsim.Cache.miss_rate (Memsim.Cache.stats c)) caches)

let tests =
  [
    ( "hierarchy",
      [
        Alcotest.test_case "latency chain" `Quick test_latency_chain;
        Alcotest.test_case "fills both levels" `Quick test_inclusion_fill;
        Alcotest.test_case "software prefetch" `Quick test_sw_prefetch;
        Alcotest.test_case "mshr limit" `Quick test_sw_prefetch_mshr_limit;
        Alcotest.test_case "hw next-line prefetch" `Quick
          test_hw_prefetch_next_line;
        Alcotest.test_case "hw prefetch useless for pointer chase" `Quick
          test_hw_prefetch_useless_for_pointers;
        Alcotest.test_case "range access straddling" `Quick
          test_access_range_straddle;
        Alcotest.test_case "tlb behaviour" `Quick test_tlb;
      ] );
    ( "machine",
      [
        Alcotest.test_case "cost split" `Quick test_machine_cost_split;
        Alcotest.test_case "prefetch cost" `Quick test_machine_prefetch_cost;
        Alcotest.test_case "reservation broker" `Quick
          test_machine_reserve_disjoint;
        Alcotest.test_case "reset vs cold start" `Quick
          test_reset_and_cold_start;
        Alcotest.test_case "mshr config" `Quick test_mshr_config;
        Alcotest.test_case "prefetch telemetry" `Quick test_prefetch_telemetry;
        QCheck_alcotest.to_alcotest prop_cycles_monotone;
      ] );
    ( "trace",
      [
        Alcotest.test_case "miss-rate curve" `Quick test_trace_miss_curve;
      ] );
  ]
