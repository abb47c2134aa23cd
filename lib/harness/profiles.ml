module C = Olden.Common
module Machine = Memsim.Machine
module Hierarchy = Memsim.Hierarchy
module Cache = Memsim.Cache
module J = Obs.Json

type report = {
  bench : string;
  placement : C.placement;
  result : C.result;
  profile : Obs.Profile.t;
  hstats : Hierarchy.stats;
  cc_counters : Ccsl.Ccmalloc.counters option;
  l2_capacity_blocks : int;
  traced_accesses : int;
  implied_l2_misses : int;
  implied_l2_miss_rate : float;
  simulated_l2_misses : int;
  simulated_l2_miss_rate : float;
}

(* The whole run is measured: the profilers see every timed access from
   the first allocation on, so the cache statistics must cover the same
   window for the implied-vs-simulated comparison to be meaningful. *)
let profile_kernel ~config placement (k : Experiments.kernel) =
  let ctx = C.make_ctx ~config placement in
  let m = ctx.C.machine in
  let profile = Obs.Profile.for_machine m in
  let sub = Obs.Profile.attach profile m in
  let result = k.k_run ~measure_whole:true ctx in
  Machine.unsubscribe m sub;
  let h = Machine.hierarchy m in
  let hstats = Hierarchy.stats h in
  let l2cfg = Cache.config (Hierarchy.l2 h) in
  let l2_capacity_blocks =
    Memsim.Cache_config.capacity_bytes l2cfg
    / l2cfg.Memsim.Cache_config.block_bytes
  in
  let traced_accesses = Obs.Profile.Reuse.accesses profile.Obs.Profile.reuse in
  let implied_l2_misses =
    Obs.Profile.Reuse.implied_misses profile.Obs.Profile.reuse
      ~blocks:l2_capacity_blocks
  in
  let implied_l2_miss_rate =
    Obs.Profile.Reuse.implied_miss_rate profile.Obs.Profile.reuse
      ~blocks:l2_capacity_blocks
  in
  let refs = Cache.accesses hstats.Hierarchy.h_l1 in
  let simulated_l2_misses = Cache.misses hstats.Hierarchy.h_l2 in
  let simulated_l2_miss_rate =
    if refs = 0 then 0.
    else float_of_int simulated_l2_misses /. float_of_int refs
  in
  {
    bench = k.k_name;
    placement;
    result;
    profile;
    hstats;
    cc_counters = Option.map Ccsl.Ccmalloc.counters ctx.C.cc;
    l2_capacity_blocks;
    traced_accesses;
    implied_l2_misses;
    implied_l2_miss_rate;
    simulated_l2_misses;
    simulated_l2_miss_rate;
  }

(* The reuse-distance histogram models one LRU cache observing every
   reference, so two properties of the Table 1 machine break the
   comparison against its L2: the 16 KB L1 filters the stream the L2
   sees (blocks hot in L1 go stale in the L2's recency order and miss
   later despite a small reuse distance), and 2-way mapping adds
   conflict misses no stack model predicts.  The default profiling
   machine therefore keeps Table 1's L2 capacity, block size and
   latencies but (a) shrinks the L1 to a single block — that filters
   only distance-0 re-references, which never change LRU order, so the
   L2 observes an LRU-equivalent stream — and (b) raises the L2 to 16
   ways (128 sets), where conflict misses are negligible but the
   set-occupancy heatmap keeps its resolution.  Pass [?config] to
   profile the exact Figure 7 machine instead. *)
let default_config placement =
  let base =
    Memsim.Config.rsim_table1 ~hw_prefetch:(placement = C.Hw_prefetch) ()
  in
  let module CC = Memsim.Cache_config in
  let l1 = base.Memsim.Config.l1 in
  let l1 =
    CC.v ~policy:l1.CC.policy ~name:l1.CC.name ~sets:1 ~assoc:1
      ~block_bytes:l1.CC.block_bytes ()
  in
  let l2 = base.Memsim.Config.l2 in
  let assoc = 16 in
  let l2 =
    CC.v ~policy:l2.CC.policy ~name:l2.CC.name
      ~sets:(l2.CC.sets * l2.CC.assoc / assoc)
      ~assoc ~block_bytes:l2.CC.block_bytes ()
  in
  { base with Memsim.Config.l1; l2 }

let run ?(scale = Experiments.Quick) ?seed ?(placement = C.Base) ?config name =
  let config =
    match config with Some c -> c | None -> default_config placement
  in
  Option.map
    (profile_kernel ~config placement)
    (Experiments.olden_kernel ?seed scale name)

let pp ppf r =
  Report.section ppf
    (Printf.sprintf "Profile: %s under %s (whole run, cold start)" r.bench
       (C.describe r.placement));
  Format.fprintf ppf "%a@.@." C.pp_result r.result;
  Format.fprintf ppf "%a@." Obs.Profile.pp r.profile;
  Format.fprintf ppf "Hierarchy counters:@.";
  Format.fprintf ppf "  L1: %a@." Cache.pp_stats r.hstats.Hierarchy.h_l1;
  Format.fprintf ppf "  L2: %a@." Cache.pp_stats r.hstats.Hierarchy.h_l2;
  (match r.hstats.Hierarchy.h_tlb with
  | None -> ()
  | Some tlb -> Format.fprintf ppf "  TLB: %a@." Memsim.Tlb.pp_stats tlb);
  Format.fprintf ppf
    "  prefetch: hw_scheduled=%d sw_dropped=%d consumed=%d cycles_saved=%d@."
    r.hstats.Hierarchy.h_hw_prefetches r.hstats.Hierarchy.h_sw_prefetches_dropped
    r.hstats.Hierarchy.h_prefetches_consumed
    r.hstats.Hierarchy.h_prefetch_cycles_saved;
  (match r.cc_counters with
  | None -> ()
  | Some c ->
      Format.fprintf ppf "ccmalloc placement: %a@." Ccsl.Ccmalloc.pp_counters c);
  Format.fprintf ppf
    "@.Reuse-distance cross-check at the L2's capacity (%d blocks):@.\
    \  implied miss rate (LRU tail + cold)   %.4f  (%d / %d traced refs)@.\
    \  simulated L2 misses per L1 reference  %.4f  (%d / %d refs)@.\
    \  difference                            %+.4f@."
    r.l2_capacity_blocks r.implied_l2_miss_rate r.implied_l2_misses
    r.traced_accesses r.simulated_l2_miss_rate r.simulated_l2_misses
    (Cache.accesses r.hstats.Hierarchy.h_l1)
    (r.implied_l2_miss_rate -. r.simulated_l2_miss_rate)

let to_json r =
  let comparison =
    J.Obj
      [
        ("l2_capacity_blocks", J.Int r.l2_capacity_blocks);
        ("traced_accesses", J.Int r.traced_accesses);
        ("implied_l2_misses", J.Int r.implied_l2_misses);
        ("implied_l2_miss_rate", J.Float r.implied_l2_miss_rate);
        ("simulated_l2_misses", J.Int r.simulated_l2_misses);
        ("simulated_l2_miss_rate", J.Float r.simulated_l2_miss_rate);
      ]
  in
  let cc =
    match r.cc_counters with
    | None -> J.Null
    | Some c ->
        J.Obj
          [
            ("allocations", J.Int c.Ccsl.Ccmalloc.c_allocations);
            ("frees", J.Int c.Ccsl.Ccmalloc.c_frees);
            ("bytes_requested", J.Int c.Ccsl.Ccmalloc.c_bytes_requested);
            ("hinted", J.Int c.Ccsl.Ccmalloc.c_hinted);
            ("hinted_same_block", J.Int c.Ccsl.Ccmalloc.c_hinted_same_block);
            ("hinted_same_page", J.Int c.Ccsl.Ccmalloc.c_hinted_same_page);
            ("hint_unmanaged", J.Int c.Ccsl.Ccmalloc.c_hint_unmanaged);
            ("strategy_fallbacks", J.Int c.Ccsl.Ccmalloc.c_strategy_fallbacks);
            ("reuse_hits", J.Int c.Ccsl.Ccmalloc.c_reuse_hits);
            ("span_allocs", J.Int c.Ccsl.Ccmalloc.c_span_allocs);
            ("pages_opened", J.Int c.Ccsl.Ccmalloc.c_pages_opened);
            ("blocks_opened", J.Int c.Ccsl.Ccmalloc.c_blocks_opened);
          ]
  in
  J.Obj
    [
      ("bench", J.String r.bench);
      ("placement", J.String (C.label r.placement));
      ("result", Report.olden_result r.result);
      ("profile", Obs.Profile.to_json r.profile);
      ("hierarchy", Obs.Export.hierarchy_stats r.hstats);
      ("ccmalloc", cc);
      ("reuse_cross_check", comparison);
    ]
