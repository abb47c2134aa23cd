let schema_version = 1

let envelope ~experiment ?scale ?seed data =
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("generator", Json.String "ccsl");
       ("experiment", Json.String experiment);
     ]
    @ (match scale with None -> [] | Some s -> [ ("scale", Json.String s) ])
    @ (match seed with None -> [] | Some s -> [ ("seed", Json.Int s) ])
    @ [ ("data", data) ])

let cost_snapshot (s : Memsim.Cost.snapshot) =
  Json.Obj
    [
      ("total", Json.Int s.Memsim.Cost.s_total);
      ("busy", Json.Int s.Memsim.Cost.s_busy);
      ("load_stall", Json.Int s.Memsim.Cost.s_load_stall);
      ("store_stall", Json.Int s.Memsim.Cost.s_store_stall);
      ("prefetch_issue", Json.Int s.Memsim.Cost.s_prefetch_issue);
    ]

let cache_stats (s : Memsim.Cache.stats) =
  Json.Obj
    [
      ("reads", Json.Int s.Memsim.Cache.reads);
      ("writes", Json.Int s.Memsim.Cache.writes);
      ("read_misses", Json.Int s.Memsim.Cache.read_misses);
      ("write_misses", Json.Int s.Memsim.Cache.write_misses);
      ("miss_rate", Json.Float (Memsim.Cache.miss_rate s));
      ("evictions", Json.Int s.Memsim.Cache.evictions);
      ("writebacks", Json.Int s.Memsim.Cache.writebacks);
      ("prefetch_installs", Json.Int s.Memsim.Cache.prefetch_installs);
    ]

let tlb_stats (s : Memsim.Tlb.stats) =
  Json.Obj
    [
      ("hits", Json.Int s.Memsim.Tlb.t_hits);
      ("misses", Json.Int s.Memsim.Tlb.t_misses);
      ("miss_rate", Json.Float (Memsim.Tlb.stats_miss_rate s));
    ]

let hierarchy_stats (s : Memsim.Hierarchy.stats) =
  Json.Obj
    ([
       ("l1", cache_stats s.Memsim.Hierarchy.h_l1);
       ("l2", cache_stats s.Memsim.Hierarchy.h_l2);
     ]
    @ (match s.Memsim.Hierarchy.h_tlb with
      | None -> []
      | Some t -> [ ("tlb", tlb_stats t) ])
    @ [
        ("hw_prefetches", Json.Int s.Memsim.Hierarchy.h_hw_prefetches);
        ( "sw_prefetches_dropped",
          Json.Int s.Memsim.Hierarchy.h_sw_prefetches_dropped );
        ("prefetches_consumed", Json.Int s.Memsim.Hierarchy.h_prefetches_consumed);
        ( "prefetch_cycles_saved",
          Json.Int s.Memsim.Hierarchy.h_prefetch_cycles_saved );
      ])

let cache_config (c : Memsim.Cache_config.t) =
  Json.Obj
    [
      ("name", Json.String c.Memsim.Cache_config.name);
      ("sets", Json.Int c.Memsim.Cache_config.sets);
      ("assoc", Json.Int c.Memsim.Cache_config.assoc);
      ("block_bytes", Json.Int c.Memsim.Cache_config.block_bytes);
      ("capacity_bytes", Json.Int (Memsim.Cache_config.capacity_bytes c));
      ( "policy",
        Json.String
          (match c.Memsim.Cache_config.policy with
          | Memsim.Cache_config.Write_through -> "write-through"
          | Memsim.Cache_config.Write_back -> "write-back") );
    ]

let config (c : Memsim.Config.t) =
  Json.Obj
    [
      ("name", Json.String c.Memsim.Config.name);
      ("l1", cache_config c.Memsim.Config.l1);
      ("l2", cache_config c.Memsim.Config.l2);
      ( "latencies",
        Json.Obj
          [
            ("l1_hit", Json.Int c.Memsim.Config.latencies.Memsim.Hierarchy.l1_hit);
            ("l1_miss", Json.Int c.Memsim.Config.latencies.Memsim.Hierarchy.l1_miss);
            ("l2_miss", Json.Int c.Memsim.Config.latencies.Memsim.Hierarchy.l2_miss);
          ] );
      ("page_bytes", Json.Int c.Memsim.Config.page_bytes);
      ("tlb", Json.Bool (c.Memsim.Config.tlb <> None));
      ("hw_prefetch", Json.Bool c.Memsim.Config.hw_prefetch);
      ("mshrs", Json.Int c.Memsim.Config.mshrs);
    ]
