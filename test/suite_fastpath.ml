(* The throughput engine's correctness contract: the tuned access path
   (straight-line direct-mapped and 2-way sets, allocation-free lookups,
   the monomorphic machine path) must leave every simulated number where
   the straightforward scan-based simulator put it, and the parallel
   experiment runner must reproduce serial results exactly. *)

module M = Memsim
module CC = Memsim.Cache_config
module Cache = Memsim.Cache
module Hierarchy = Memsim.Hierarchy
module Machine = Memsim.Machine
module OC = Olden.Common

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

(* Everything the simulator reports, as one comparable value. *)
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
  ( r.OC.checksum,
    r.OC.snapshot,
    stats_tuple (Cache.stats (Hierarchy.l1 h)),
    stats_tuple (Cache.stats (Hierarchy.l2 h)) )

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
  Alcotest.(check bool)
    "cycles, misses, evictions and writebacks equal the pinned run" true
    (olden_fingerprint ~placement which = List.assoc (which, placement) pinned)

(* The straight-line set paths: 2-way LRU order, invalid ways first, and
   direct-mapped write-back accounting. *)
let test_straight_line_sets () =
  let c = Cache.create (CC.v ~name:"2w" ~sets:4 ~assoc:2 ~block_bytes:16 ()) in
  (* blocks 0, 4, 8, ... all map to set 0 *)
  let blk k = k * 4 * 16 in
  let resident ks = List.map (fun k -> Cache.probe c (blk k)) ks in
  let touch ks =
    List.iter (fun k -> ignore (Cache.access c ~write:false (blk k))) ks
  in
  (* blocks 0 and 1 fill ways 0 and 1; a hit on way 0 leaves way 1 the
     least recent *)
  touch [ 0; 1; 0; 2 ];
  Alcotest.(check (list bool)) "the miss after a way-0 hit evicts way 1"
    [ true; false; true ] (resident [ 0; 1; 2 ]);
  (* way 1 (block 2) was filled after way 0's last hit; hitting both
     again, way 1 last, leaves way 0 the least recent *)
  touch [ 0; 2; 3 ];
  Alcotest.(check (list bool)) "the miss after a way-1 hit evicts way 0"
    [ false; true; true ] (resident [ 0; 2; 3 ]);
  (* block 3 (way 0) is the most recent; once invalidated, its way is
     refilled before block 2's least-recently-used one *)
  Cache.invalidate c (blk 3);
  touch [ 4 ];
  Alcotest.(check (list bool)) "an invalid way 0 is refilled first"
    [ true; false; true ] (resident [ 2; 3; 4 ]);
  touch [ 2 ];
  Cache.invalidate c (blk 2);
  touch [ 5 ];
  Alcotest.(check (list bool)) "an invalid way 1 is refilled first"
    [ false; true; true ] (resident [ 2; 4; 5 ]);
  Alcotest.(check int) "demand accesses still counted" 10
    (Cache.accesses (Cache.stats c));
  Alcotest.(check int) "no eviction into an invalid way" 2
    (Cache.stats c).Cache.evictions;
  let d = Cache.create (CC.v ~name:"dm" ~sets:4 ~assoc:1 ~block_bytes:16 ()) in
  (* 0, 64 and 128 share set 0: a read miss, a write hit that dirties
     the line, then two evictions, only the first of them dirty *)
  ignore (Cache.access d ~write:false 0);
  Alcotest.(check bool) "write hit" true (Cache.access d ~write:true 4);
  ignore (Cache.access d ~write:false 64);
  ignore (Cache.access d ~write:false 128);
  let s = Cache.stats d in
  Alcotest.(check (pair int int)) "direct-mapped evictions, writebacks"
    (2, 1) (s.Cache.evictions, s.Cache.writebacks);
  Alcotest.(check int) "direct-mapped demand accesses counted" 4
    (Cache.accesses s)

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

(* Typed results with a float: nothing passes through JSON.  These
   tests fork wherever [Parallel.width ()] > 1 and run in process
   otherwise; they hold either way. *)
let toy_job i = (i, "job" ^ string_of_int i, float_of_int i /. 3.)

let test_parallel_matches_serial () =
  let xs = List.init 5 Fun.id in
  Alcotest.(check (list (triple int string (float 0.))))
    "same values, same order" (List.map toy_job xs)
    (Harness.Parallel.map toy_job xs)

(* More jobs than cores: children are recycled, results keep list
   order, and a result larger than a pipe buffer still comes back. *)
let test_parallel_more_jobs_than_width () =
  let xs = List.init (max 9 (2 * Domain.recommended_domain_count ())) Fun.id in
  let job i = (toy_job i, String.make (if i = 3 then 1 lsl 20 else i) 'x') in
  Alcotest.(check (list (pair (triple int string (float 0.)) string)))
    "same values, same order" (List.map job xs) (Harness.Parallel.map job xs)

(* A job never forks again: a map inside a job runs in the job's own
   process, so every inner job reports the outer job's pid. *)
let test_parallel_nested_runs_in_job () =
  let outer _ =
    (Unix.getpid (), Harness.Parallel.map (fun _ -> Unix.getpid ()) [ 0; 1; 2 ])
  in
  List.iter
    (fun (pid, inner) ->
      Alcotest.(check (list int)) "inner jobs ran in the job's process"
        [ pid; pid; pid ] inner)
    (Harness.Parallel.map outer [ 0; 1; 2 ])

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The same [Failure] on both paths: forked here (when the width allows)
   and in process inside a job. *)
let test_parallel_error_propagates () =
  let job i =
    if i >= 1 then failwith ("boom" ^ string_of_int i) else toy_job i
  in
  let check what f =
    match f () with
    | _ -> Alcotest.fail (what ^ ": expected the job's failure to propagate")
    | exception Failure msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names the first failing job and its error"
             what msg)
          true
          (contains "parallel job 1:" msg && contains "boom1" msg)
  in
  check "top level" (fun () -> Harness.Parallel.map job [ 0; 1; 2 ]);
  check "in process" (fun () ->
      match
        Harness.Parallel.map
          (fun () ->
            match Harness.Parallel.map job [ 0; 1; 2 ] with
            | _ -> "no failure"
            | exception Failure msg -> msg)
          [ (); () ]
      with
      | msg :: _ -> failwith msg
      | [] -> assert false)

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
        Alcotest.test_case "straight-line set paths" `Quick
          test_straight_line_sets;
        Alcotest.test_case "subscription order" `Quick test_subscription_order;
        Alcotest.test_case "MSHR fixed-slot table" `Quick test_mshr_table;
        Alcotest.test_case "parallel runner matches serial" `Quick
          test_parallel_matches_serial;
        Alcotest.test_case "parallel runner propagates errors" `Quick
          test_parallel_error_propagates;
        Alcotest.test_case "parallel runner bounds its width" `Quick
          test_parallel_more_jobs_than_width;
        Alcotest.test_case "parallel runner never forks inside a job" `Quick
          test_parallel_nested_runs_in_job;
      ] );
  ]
