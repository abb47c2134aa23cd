(* The throughput engine's correctness contract: the tuned access path
   (MRU block filters, allocation-free lookups, the monomorphic machine
   path) must leave every simulated number where the straightforward
   scan-based simulator put it, and the parallel experiment runner must
   reproduce serial results exactly. *)

module M = Memsim
module CC = Memsim.Cache_config
module Cache = Memsim.Cache
module Hierarchy = Memsim.Hierarchy
module Machine = Memsim.Machine
module OC = Olden.Common
module J = Obs.Json

let stats_tuple (s : Cache.stats) =
  ( s.Cache.reads,
    s.Cache.writes,
    s.Cache.read_misses,
    s.Cache.write_misses,
    s.Cache.evictions,
    s.Cache.writebacks,
    s.Cache.prefetch_installs )

(* ------------------------------------------------------------------ *)
(* Differential: whole Olden benchmarks against pinned statistics      *)
(* ------------------------------------------------------------------ *)

(* Everything the simulator reports, as one comparable value, plus the
   L1 MRU filter hit count, so the run can prove the filter actually
   engaged (a filter that never fires would make the pin vacuous). *)
let olden_fingerprint ~placement which =
  let ctx = OC.make_ctx placement in
  let r =
    match which with
    | `Treeadd ->
        Olden.Treeadd.run
          ~params:{ Olden.Treeadd.levels = 10; passes = 2 }
          ~ctx placement
    | `Health ->
        Olden.Health.run
          ~params:
            { Olden.Health.levels = 2; steps = 60; morph_interval = 15;
              seed = 7 }
          ~ctx placement
  in
  let h = Machine.hierarchy ctx.OC.machine in
  let fp =
    ( r.OC.checksum,
      r.OC.snapshot,
      stats_tuple (Cache.stats (Hierarchy.l1 h)),
      stats_tuple (Cache.stats (Hierarchy.l2 h)) )
  in
  (fp, Cache.mru_filter_hits (Hierarchy.l1 h))

let snap busy load store total =
  {
    M.Cost.s_busy = busy;
    s_load_stall = load;
    s_store_stall = store;
    s_prefetch_issue = 0;
    s_total = total;
  }

(* Checksum, cost snapshot and L1/L2 (reads, writes, read misses, write
   misses, evictions, writebacks, prefetch installs) of each run, as
   both the filtered path and the scan-based reference simulator
   reported them when the two still coexisted. *)
let pinned =
  [
    ( (`Treeadd, OC.Base),
      ( 1023,
        snap 8184 2295 0 10479,
        (6138, 0, 255, 0, 255, 0, 0),
        (255, 0, 0, 0, 0, 0, 0) ) );
    ( (`Treeadd, OC.Ccmorph_cluster_color),
      ( 1023,
        snap 8184 0 0 8184,
        (6138, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0) ) );
    ( (`Health, OC.Base),
      ( 434426,
        snap 185518 26559 11880 223957,
        (69003, 30949, 2951, 240, 3063, 0, 0),
        (2951, 240, 0, 162, 0, 0, 0) ) );
    ( (`Health, OC.Ccmorph_cluster_color),
      ( 434426,
        snap 184384 93500 38277 316161,
        (70472, 34657, 10381, 933, 11186, 0, 0),
        (10381, 933, 0, 498, 77, 77, 0) ) );
  ]

let check_differential which placement () =
  let fp, mru = olden_fingerprint ~placement which in
  Alcotest.(check bool)
    "cycles, misses, evictions and writebacks equal the pinned run" true
    (fp = List.assoc (which, placement) pinned);
  Alcotest.(check bool) "MRU filter engaged" true (mru > 0)

let test_mru_filter_counts () =
  let c = Cache.create (CC.v ~name:"m" ~sets:4 ~assoc:2 ~block_bytes:16 ()) in
  (* miss installs the block and primes the memo; the next three
     same-block accesses are pure filter hits *)
  ignore (Cache.access c ~write:false 0);
  ignore (Cache.access c ~write:false 4);
  ignore (Cache.access c ~write:false 8);
  ignore (Cache.access c ~write:true 12);
  Alcotest.(check int) "filter hits" 3 (Cache.mru_filter_hits c);
  Alcotest.(check int) "demand accesses still counted" 4
    (Cache.accesses (Cache.stats c))

(* ------------------------------------------------------------------ *)
(* Machine.subscribe: O(1) prepend, stable observer order              *)
(* ------------------------------------------------------------------ *)

let test_subscription_order () =
  let m = Machine.create (M.Config.tiny ()) in
  let base = Machine.reserve m ~bytes:64 ~align:64 in
  let fired = ref [] in
  let obs tag = fun _write _addr -> fired := tag :: !fired in
  let _s1 = Machine.subscribe m (obs 1) in
  let s2 = Machine.subscribe m (obs 2) in
  let _s3 = Machine.subscribe m (obs 3) in
  ignore (Machine.load32 m base);
  Alcotest.(check (list int))
    "observers fire in subscription order" [ 1; 2; 3 ] (List.rev !fired);
  fired := [];
  Machine.unsubscribe m s2;
  ignore (Machine.load32 m base);
  Alcotest.(check (list int))
    "order stable after unsubscribing the middle observer" [ 1; 3 ]
    (List.rev !fired)

(* ------------------------------------------------------------------ *)
(* MSHR table: fixed slots, deterministic drain, demand absorption     *)
(* ------------------------------------------------------------------ *)

let small_hier mshrs =
  Hierarchy.create ~mshrs
    ~l1:(CC.v ~name:"l1" ~sets:4 ~assoc:1 ~block_bytes:16 ())
    ~l2:(CC.v ~name:"l2" ~sets:8 ~assoc:2 ~block_bytes:16 ())
    ~latencies:{ Hierarchy.l1_hit = 1; l1_miss = 9; l2_miss = 60 }
    ()

let test_mshr_table () =
  let h = small_hier 2 in
  Hierarchy.prefetch h ~now:0 0x1000;
  Hierarchy.prefetch h ~now:0 0x2000;
  Alcotest.(check int) "both slots in flight" 2 (Hierarchy.pending_prefetches h);
  (* table full and neither fill complete: the third request is dropped *)
  Hierarchy.prefetch h ~now:0 0x3000;
  Alcotest.(check int) "still two" 2 (Hierarchy.pending_prefetches h);
  Alcotest.(check int) "drop counted" 1 (Hierarchy.sw_prefetches_dropped h);
  (* much later both fills are complete; scheduling drains them first *)
  Hierarchy.prefetch h ~now:1000 0x4000;
  Alcotest.(check int) "drained then refilled" 1
    (Hierarchy.pending_prefetches h);
  Alcotest.(check bool) "drained block installed in L2" true
    (Cache.probe (Hierarchy.l2 h) 0x1000);
  (* a demand access absorbs an in-flight fill: latency is capped by the
     remaining time, never worse than a plain miss *)
  Hierarchy.prefetch h ~now:1500 0x5000;
  let lat = Hierarchy.access h ~now:1510 ~write:false 0x5000 in
  Alcotest.(check int) "absorbed latency 1+9+min(59,60)" 69 lat;
  let consumed, saved = Hierarchy.prefetches_consumed h in
  Alcotest.(check int) "consumed" 1 consumed;
  Alcotest.(check int) "cycles saved" 1 saved

(* ------------------------------------------------------------------ *)
(* Parallel runner                                                     *)
(* ------------------------------------------------------------------ *)

let toy_jobs =
  List.init 5 (fun i ->
      ( "job" ^ string_of_int i,
        fun () -> J.Obj [ ("i", J.Int i); ("sq", J.Int (i * i)) ] ))

let test_parallel_matches_serial () =
  let serial = Harness.Parallel.run_serial toy_jobs in
  let par = Harness.Parallel.run_jobs ~parallel:true toy_jobs in
  Alcotest.(check bool) "same names, same payloads, same order" true
    (List.for_all2
       (fun (n1, j1) (n2, j2) -> n1 = n2 && J.equal j1 j2)
       serial par)

let test_parallel_error_propagates () =
  let jobs =
    [ ("ok", fun () -> J.Int 1); ("bad", fun () -> failwith "boom") ]
  in
  match Harness.Parallel.run_jobs ~parallel:true jobs with
  | _ -> Alcotest.fail "expected the child's failure to propagate"
  | exception Failure msg ->
      let contains sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the job" true (contains "bad" msg)

(* ------------------------------------------------------------------ *)
(* Arm payload codec                                                   *)
(* ------------------------------------------------------------------ *)

let fake_result =
  {
    OC.r_label = "Cl+Col";
    checksum = 424242;
    snapshot =
      {
        M.Cost.s_busy = 100;
        s_load_stall = 40;
        s_store_stall = 10;
        s_prefetch_issue = 2;
        s_total = 152;
      };
    l1_miss_rate = 0.125;
    l2_miss_rate = 0.5;
    l2_misses_per_ref = 0.0625;
    memory_bytes = 8192;
    structures_bytes = 6144;
  }

let test_arm_payload_roundtrip () =
  let arm =
    { Harness.Whole_program.arm_label = "static"; arm_result = fake_result }
  in
  let arm' =
    Harness.Whole_program.arm_of_payload
      (Harness.Whole_program.arm_payload arm)
  in
  Alcotest.(check bool) "arm survives" true (arm = arm')

let tests =
  [
    ( "fastpath",
      [
        Alcotest.test_case "differential treeadd (base)" `Quick
          (check_differential `Treeadd OC.Base);
        Alcotest.test_case "differential treeadd (cluster+color)" `Quick
          (check_differential `Treeadd OC.Ccmorph_cluster_color);
        Alcotest.test_case "differential health (base)" `Quick
          (check_differential `Health OC.Base);
        Alcotest.test_case "differential health (cluster+color)" `Quick
          (check_differential `Health OC.Ccmorph_cluster_color);
        Alcotest.test_case "MRU filter hit accounting" `Quick
          test_mru_filter_counts;
        Alcotest.test_case "subscription order" `Quick test_subscription_order;
        Alcotest.test_case "MSHR fixed-slot table" `Quick test_mshr_table;
        Alcotest.test_case "parallel runner matches serial" `Quick
          test_parallel_matches_serial;
        Alcotest.test_case "parallel runner propagates errors" `Quick
          test_parallel_error_propagates;
        Alcotest.test_case "arm payload round-trip" `Quick
          test_arm_payload_roundtrip;
      ] );
  ]
