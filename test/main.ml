(* Aggregated alcotest entry point for the whole repository. *)

let () =
  Alcotest.run "ccsl"
    (Suite_addr.tests @ Suite_memory.tests @ Suite_cache.tests
   @ Suite_hierarchy.tests @ Suite_alloc.tests @ Suite_ccmalloc.tests
   @ Suite_placement.tests @ Suite_ccmorph.tests @ Suite_structures.tests
   @ Suite_bdd.tests @ Suite_workload.tests @ Suite_olden.tests
   @ Suite_apps.tests @ Suite_obs.tests @ Suite_analyze.tests
   @ Suite_fastpath.tests @ Suite_layout.tests
   @ Suite_hotpath.tests @ Suite_alloc_table.tests @ Suite_ccmorph_flat.tests)
