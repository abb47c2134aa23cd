(* The layout-engine subsystem's contract: the refactored engines are
   bit-identical to the schemes they replaced, every engine (built-in or
   not) emits a valid partition on arbitrary unbalanced trees, and the
   multi-level shootout harness reproduces its committed export exactly
   under the parallel runner. *)

module M = Memsim
module Machine = Memsim.Machine
module Config = Memsim.Config
module Cache = Memsim.Cache
module Hierarchy = Memsim.Hierarchy
module Ccmorph = Ccsl.Ccmorph
module Bst = Structures.Bst
module Rng = Workload.Rng
module OC = Olden.Common
module J = Obs.Json
module LS = Harness.Layout_shootout

let stats_tuple (s : Cache.stats) =
  ( s.Cache.reads,
    s.Cache.writes,
    s.Cache.read_misses,
    s.Cache.write_misses,
    s.Cache.evictions,
    s.Cache.writebacks )

(* ------------------------------------------------------------------ *)
(* Differential: alias scheme vs explicit engine, whole Olden runs     *)
(* ------------------------------------------------------------------ *)

(* Every simulated number for an Olden benchmark run with the given
   cluster scheme.  If the refactor behind [Layout.Engine] changed even
   one block assignment, cycles or misses would drift. *)
let olden_fingerprint ~scheme which =
  let ctx = OC.make_ctx OC.Ccmorph_cluster_color in
  let ctx =
    {
      ctx with
      OC.morph_params =
        Some { Ccmorph.default_params with Ccmorph.cluster = scheme };
    }
  in
  let r =
    match which with
    | `Treeadd ->
        Olden.Treeadd.run
          ~params:{ Olden.Treeadd.levels = 10; passes = 2 }
          ~ctx OC.Ccmorph_cluster_color
    | `Health ->
        Olden.Health.run
          ~params:
            { Olden.Health.levels = 2; steps = 60; morph_interval = 15;
              seed = 7 }
          ~ctx OC.Ccmorph_cluster_color
  in
  let h = Machine.hierarchy ctx.OC.machine in
  ( r.OC.checksum,
    r.OC.snapshot,
    stats_tuple (Cache.stats (Hierarchy.l1 h)),
    stats_tuple (Cache.stats (Hierarchy.l2 h)) )

(* Health honors morph_params verbatim, so the [Subtree] alias must
   equal the explicit subtree engine.  Treeadd rewrites a literal
   [Subtree] to depth-first chunking (the paper's Section 2.1 choice for
   its kernel), so there the meaningful identity is the [Depth_first]
   pair. *)
let test_health_subtree_differential () =
  Alcotest.(check bool)
    "Subtree alias == Engine subtree on health" true
    (olden_fingerprint ~scheme:Ccmorph.Subtree `Health
    = olden_fingerprint ~scheme:(Ccmorph.Engine Layout.Engine.subtree) `Health)

let test_treeadd_depth_first_differential () =
  Alcotest.(check bool)
    "Depth_first alias == Engine depth_first on treeadd" true
    (olden_fingerprint ~scheme:Ccmorph.Depth_first `Treeadd
    = olden_fingerprint
        ~scheme:(Ccmorph.Engine Layout.Engine.depth_first)
        `Treeadd)

(* ------------------------------------------------------------------ *)
(* Property: every engine partitions arbitrary unbalanced trees        *)
(* ------------------------------------------------------------------ *)

let prop_all_engines_valid =
  QCheck.Test.make ~count:100
    ~name:"every engine's plan passes check_plan on random forests"
    QCheck.(triple (int_range 1 200) (int_range 1 8) bool)
    (fun (n, k, forest) ->
      (* random unbalanced tree: parent of i is a random j < i; a forest
         leaves the first few nodes parentless *)
      let rng = Rng.create ((n * 131) + (k * 7) + Bool.to_int forest) in
      let nroots = if forest then min n (1 + Rng.int rng 3) else 1 in
      let kids = Array.make n [] in
      for i = nroots to n - 1 do
        let p = Rng.int rng i in
        kids.(p) <- i :: kids.(p)
      done;
      let weight =
        if forest then Some (fun v -> float_of_int ((v * 37) mod 11)) else None
      in
      let t =
        Layout.Tree.v ?weight ~n
          ~kids:(fun i -> kids.(i))
          ~roots:(List.init nroots Fun.id)
          ()
      in
      List.for_all
        (fun e ->
          Layout.check_plan (e.Layout.Engine.plan t ~k) ~n ~k;
          true)
        Layout.Engine.builtins)

(* ------------------------------------------------------------------ *)
(* vEB: recursive-subdivision order, pinned on a complete tree         *)
(* ------------------------------------------------------------------ *)

let complete_kids n i =
  List.filter (fun c -> c < n) [ (2 * i) + 1; (2 * i) + 2 ]

(* Height-4 complete tree, k = 3: the van Emde Boas split puts the top
   two levels in one block and each depth-2 subtree in its own block —
   the triads a 3-element block can hold at every recursion level. *)
let test_veb_complete_tree () =
  let n = 15 in
  let t = Layout.Tree.v ~n ~kids:(complete_kids n) ~roots:[ 0 ] () in
  let plan = Layout.Veb.plan t ~k:3 in
  Layout.check_plan plan ~n ~k:3;
  let expect =
    [| [| 0; 1; 2 |]; [| 3; 7; 8 |]; [| 4; 9; 10 |]; [| 5; 11; 12 |];
       [| 6; 13; 14 |] |]
  in
  Alcotest.(check bool) "vEB blocks are the recursive triads" true
    (plan.Layout.Plan.blocks = expect);
  Alcotest.(check int) "root lands in block 0 (coloring hot prefix)" 0
    plan.Layout.Plan.block_of_node.(0)

(* ------------------------------------------------------------------ *)
(* Engines under morph: checksum preserved, debug plan checking        *)
(* ------------------------------------------------------------------ *)

let test_morph_engines_with_debug_check () =
  Fun.protect
    ~finally:(fun () -> Ccmorph.debug_check_plans := false)
    (fun () ->
      Ccmorph.debug_check_plans := true;
      List.iter
        (fun (name, scheme) ->
          let m = Machine.create (Config.tiny ()) in
          let elem_bytes = Bst.default_elem_bytes in
          let n = 127 in
          let keys = Array.init n (fun i -> i) in
          let t =
            Bst.build m ~elem_bytes
              ~alloc:(Alloc.Malloc.allocator (Alloc.Malloc.create m))
              (Bst.Random (Rng.create 42)) ~keys
          in
          let params =
            {
              Ccmorph.default_params with
              Ccmorph.cluster = scheme;
              weights = Some (fun a -> float_of_int (a land 0xff));
            }
          in
          let r =
            Ccmorph.morph ~params m (Bst.desc ~elem_bytes) ~root:t.Bst.root
          in
          let t = Bst.of_root m ~elem_bytes ~n r.Ccmorph.new_root in
          let ok = Array.for_all (fun k -> Bst.search t k) keys in
          Alcotest.(check bool) (name ^ ": all keys survive the morph") true ok)
        LS.engine_schemes)

(* ------------------------------------------------------------------ *)
(* page_aware TLB sensitivity, per engine                              *)
(* ------------------------------------------------------------------ *)

(* One deterministic search-heavy run on the TLB-modeling UltraSPARC,
   deep enough (2^15 - 1 nodes x 20 B = 640 KB) to exceed the 512 KB
   TLB reach. *)
let tlb_fingerprint ~scheme ~page_aware =
  let m = Machine.create (Config.ultrasparc_e5000 ~tlb:true ()) in
  let elem_bytes = Bst.default_elem_bytes in
  let n = (1 lsl 15) - 1 in
  let keys = Array.init n (fun i -> i) in
  let t =
    Bst.build m ~elem_bytes
      ~alloc:(Alloc.Malloc.allocator (Alloc.Malloc.create m))
      (Bst.Random (Rng.create 11)) ~keys
  in
  let params =
    { Ccmorph.default_params with Ccmorph.cluster = scheme; page_aware }
  in
  let r = Ccmorph.morph ~params m (Bst.desc ~elem_bytes) ~root:t.Bst.root in
  let t = Bst.of_root m ~elem_bytes ~n r.Ccmorph.new_root in
  Machine.cold_start m;
  let rng = Rng.create 23 in
  for _ = 1 to 3_000 do
    ignore (Bst.search t keys.(Rng.int rng n))
  done;
  let st = Hierarchy.stats (Machine.hierarchy m) in
  let tlb_misses =
    match st.Hierarchy.h_tlb with
    | Some s -> s.M.Tlb.t_misses
    | None -> Alcotest.fail "machine models no TLB"
  in
  ( tlb_misses,
    Machine.cycles m,
    stats_tuple st.Hierarchy.h_l1,
    stats_tuple st.Hierarchy.h_l2 )

let test_page_aware_tlb_sensitivity () =
  List.iter
    (fun (name, scheme) ->
      let engine = Ccmorph.engine_of_scheme scheme in
      let on = tlb_fingerprint ~scheme ~page_aware:true in
      let off = tlb_fingerprint ~scheme ~page_aware:false in
      match engine.Layout.Engine.cold_order with
      | Layout.Engine.Plan_order ->
          (* plan order IS the page order: the flag must be inert *)
          Alcotest.(check bool)
            (name ^ ": page_aware is a no-op for plan-order engines")
            true (on = off)
      | Layout.Engine.Dfs_first_visit ->
          let tlb_on, _, _, _ = on and tlb_off, _, _, _ = off in
          Alcotest.(check bool)
            (Printf.sprintf "%s: page-aware emission does not hurt TLB (%d <= %d)"
               name tlb_on tlb_off)
            true (tlb_on <= tlb_off))
    LS.engine_schemes

(* ------------------------------------------------------------------ *)
(* Shootout harness: report shape, parallel == serial                  *)
(* ------------------------------------------------------------------ *)

let test_shootout_report_shape () =
  match LS.run "micro" with
  | None -> Alcotest.fail "micro is a known workload"
  | Some r ->
      let engines = List.map fst LS.engine_schemes in
      Alcotest.(check (list string))
        "one row per built-in engine, in order" engines
        (List.map (fun row -> row.LS.row_engine) r.LS.rows);
      (match r.LS.rows with
      | first :: rest ->
          List.iter
            (fun row ->
              Alcotest.(check int)
                (row.LS.row_engine ^ ": layout must not change the answers")
                first.LS.row_checksum row.LS.row_checksum)
            rest
      | [] -> Alcotest.fail "empty report");
      List.iter
        (fun row ->
          Alcotest.(check bool)
            (row.LS.row_engine ^ ": TLB level present on the micro machine")
            true
            (row.LS.row_tlb <> None))
        r.LS.rows

(* The reference is the committed BENCH_layout_treeadd.json, which
   [ccsl-cli layout treeadd --json] writes, found from the test binary's
   path (dune copies it to the build root as a dependency) so the test
   runs from any working directory: the rows [Parallel.map]
   reassembles (forked wherever the machine has more than one core)
   must export byte-identically to it. *)
let test_shootout_parallel_matches_serial () =
  match LS.run "treeadd" with
  | Some r ->
      let golden =
        In_channel.with_open_bin
          (Filename.concat
             (Filename.dirname Sys.executable_name)
             "../BENCH_layout_treeadd.json")
          In_channel.input_all
      in
      let export =
        Obs.Export.envelope ~experiment:"layout-treeadd" ~scale:"quick"
          (LS.to_json r)
      in
      Alcotest.(check string) "forked shootout reassembles byte-identically"
        golden
        (J.to_string export ^ "\n")
  | None -> Alcotest.fail "treeadd is a known workload"

let test_shootout_unknown_bench () =
  Alcotest.(check bool) "unknown workload is None" true
    (LS.run "nosuch" = None)

let tests =
  [
    ( "layout",
      [
        Alcotest.test_case "differential health: Subtree == engine" `Quick
          test_health_subtree_differential;
        Alcotest.test_case "differential treeadd: Depth_first == engine" `Quick
          test_treeadd_depth_first_differential;
        Alcotest.test_case "vEB order on a complete tree" `Quick
          test_veb_complete_tree;
        Alcotest.test_case "all engines morph under debug plan checking"
          `Quick test_morph_engines_with_debug_check;
        Alcotest.test_case "page_aware TLB sensitivity per engine" `Quick
          test_page_aware_tlb_sensitivity;
        Alcotest.test_case "shootout report shape (micro)" `Quick
          test_shootout_report_shape;
        Alcotest.test_case "shootout parallel == serial (treeadd)" `Quick
          test_shootout_parallel_matches_serial;
        Alcotest.test_case "shootout rejects unknown workloads" `Quick
          test_shootout_unknown_bench;
        QCheck_alcotest.to_alcotest prop_all_engines_valid;
      ] );
  ]
