(* Tests for the VIS and RADIANCE macrobenchmark proxies and the Figure 5
   / Figure 10 microbenchmark driver. *)

module Machine = Memsim.Machine
module Config = Memsim.Config

(* --- VIS: circuits and reachability --- *)

let reach_small c =
  let m = Machine.create (Config.tiny ()) in
  Vis.Reach.run ~unique_bits:8 ~cache_bits:8 m c

let test_counter_reach () =
  let r = reach_small (Vis.Circuit.counter 4) in
  Alcotest.(check (float 0.)) "16 states" 16. r.Vis.Reach.states;
  Alcotest.(check int) "15 iterations" 15 r.Vis.Reach.iterations

let test_gray_reach () =
  let r = reach_small (Vis.Circuit.gray_counter 4) in
  Alcotest.(check (float 0.)) "16 states" 16. r.Vis.Reach.states;
  Alcotest.(check int) "15 iterations" 15 r.Vis.Reach.iterations

let test_shifter_reach () =
  let r = reach_small (Vis.Circuit.shifter 6) in
  Alcotest.(check (float 0.)) "64 states" 64. r.Vis.Reach.states;
  Alcotest.(check int) "6 iterations" 6 r.Vis.Reach.iterations

let test_lfsr_reach () =
  let r = reach_small (Vis.Circuit.lfsr 4) in
  Alcotest.(check (float 0.)) "15 states" 15. r.Vis.Reach.states;
  Alcotest.(check int) "14 iterations" 14 r.Vis.Reach.iterations;
  Alcotest.check_raises "unsupported width"
    (Invalid_argument "Circuit.lfsr: unsupported width 7") (fun () ->
      ignore (Vis.Circuit.lfsr 7))

let test_token_ring_reach () =
  let r = reach_small (Vis.Circuit.token_ring 5) in
  Alcotest.(check (float 0.)) "5 states" 5. r.Vis.Reach.states;
  Alcotest.(check int) "4 iterations" 4 r.Vis.Reach.iterations

let prop_circuit_oracles =
  (* every default circuit's reachable set matches its closed form,
     under both allocators *)
  QCheck.Test.make ~count:6 ~name:"circuit reachability matches oracles"
    QCheck.(pair (int_range 0 5) bool)
    (fun (idx, use_ccmalloc) ->
      let c = List.nth Vis.Circuit.all_default idx in
      (* scale the heavyweight circuits down for the property test *)
      let c =
        if c.Vis.Circuit.state_bits > 6 then
          match c.Vis.Circuit.name.[0] with
          | 'c' -> Vis.Circuit.counter 5
          | 'g' -> Vis.Circuit.gray_counter 5
          | 's' -> Vis.Circuit.shifter 8
          | 'l' -> Vis.Circuit.lfsr 5
          | _ -> Vis.Circuit.token_ring 8
        else c
      in
      let m = Machine.create (Config.tiny ()) in
      let alloc =
        if use_ccmalloc then
          Some (Ccsl.Ccmalloc.allocator (Ccsl.Ccmalloc.create m))
        else None
      in
      let r = Vis.Reach.run ~unique_bits:8 ~cache_bits:8 ?alloc m c in
      r.Vis.Reach.states = c.Vis.Circuit.expected_states
      && r.Vis.Reach.iterations = c.Vis.Circuit.expected_iterations)

let test_vis_bench_verifies () =
  let circuits = [ Vis.Circuit.counter 5; Vis.Circuit.shifter 8 ] in
  let base = Vis.Vis_bench.run ~circuits ~mult_bits:4 Vis.Vis_bench.Base in
  let cc =
    Vis.Vis_bench.run ~circuits ~mult_bits:4
      (Vis.Vis_bench.Ccmalloc Ccsl.Ccmalloc.New_block)
  in
  Alcotest.(check bool) "multiplier equivalence proved" true
    (base.Vis.Vis_bench.mult_equivalent && cc.Vis.Vis_bench.mult_equivalent);
  Alcotest.(check bool) "base verifies" true
    (Vis.Vis_bench.verify base circuits);
  Alcotest.(check int) "identical checksums" base.Vis.Vis_bench.checksum
    cc.Vis.Vis_bench.checksum;
  Alcotest.(check int) "same node counts" base.Vis.Vis_bench.total_nodes
    cc.Vis.Vis_bench.total_nodes

let test_multiplier_oracle () =
  let m = Machine.create (Config.tiny ()) in
  let mgr = Structures.Bdd.create ~unique_bits:10 ~cache_bits:10 ~nvars:8 m in
  let outs = Vis.Combinational.multiplier mgr ~bits:4 in
  for a = 0 to 15 do
    for b = 0 to 15 do
      Alcotest.(check int)
        (Printf.sprintf "%d*%d" a b)
        (a * b)
        (Vis.Combinational.eval_multiplier mgr outs ~a ~b ~bits:4)
    done
  done

let test_adder_commutes () =
  let m = Machine.create (Config.tiny ()) in
  let mgr = Structures.Bdd.create ~unique_bits:10 ~cache_bits:10 ~nvars:12 m in
  let ab, ba = Vis.Combinational.adder mgr ~bits:6 in
  Array.iteri
    (fun i x -> Alcotest.(check int) "same node" x ba.(i))
    ab

let test_bdd_gc () =
  let m = Machine.create (Config.tiny ()) in
  let mgr = Structures.Bdd.create ~unique_bits:8 ~cache_bits:8 ~nvars:8 m in
  let x = Structures.Bdd.var mgr 0 and y = Structures.Bdd.var mgr 1 in
  let keep = Structures.Bdd.band mgr x y in
  let _dead = Structures.Bdd.bor mgr x y in
  let before = Structures.Bdd.live_nodes mgr in
  let freed = Structures.Bdd.gc mgr ~roots:[ keep ] in
  Alcotest.(check bool) "something freed" true (freed > 0);
  Alcotest.(check int) "accounting" (before - freed)
    (Structures.Bdd.live_nodes mgr);
  (* survivors still canonical and usable *)
  Alcotest.(check int) "rebuild finds survivor" keep
    (Structures.Bdd.band mgr x y);
  Alcotest.(check bool) "semantics intact" true
    (Structures.Bdd.eval mgr keep (fun _ -> true));
  (* recreate the dead node: fresh address is fine, semantics must hold *)
  let o = Structures.Bdd.bor mgr x y in
  Alcotest.(check bool) "recreated or-node works" true
    (Structures.Bdd.eval mgr o (fun v -> v = 0))

(* --- RADIANCE: scene, tracer, bench --- *)

let small_scene = Radiance.Scene.generate ~seed:4 ~size:64 ~spheres:6 ()

let test_scene_consistency () =
  (* octree built from the oracle agrees with direct point sampling *)
  let m = Machine.create (Config.tiny ()) in
  let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
  let oct =
    Structures.Octree.build m ~alloc ~size:64 ~oracle:(fun ~x ~y ~z ~size ->
        Radiance.Scene.oracle small_scene ~x ~y ~z ~size)
  in
  let rng = Workload.Rng.create 9 in
  for _ = 1 to 500 do
    let x = Workload.Rng.int rng 64
    and y = Workload.Rng.int rng 64
    and z = Workload.Rng.int rng 64 in
    let direct = Radiance.Scene.value_at small_scene ~x ~y ~z in
    let via_tree = Structures.Octree.locate oct ~x ~y ~z in
    let got = if via_tree = 0 then 0 else via_tree - 1 in
    Alcotest.(check int) "octree matches scene" direct got
  done

let small_params =
  {
    Radiance.Radiance_bench.scene_size = 64;
    spheres = 6;
    width = 16;
    height = 16;
    step = 2;
    seed = 4;
  }

let test_radiance_invariant () =
  let base = Radiance.Radiance_bench.run ~params:small_params Radiance.Radiance_bench.Base in
  let cl =
    Radiance.Radiance_bench.run ~params:small_params
      Radiance.Radiance_bench.Ccmorph_cluster
  in
  let col =
    Radiance.Radiance_bench.run ~params:small_params
      Radiance.Radiance_bench.Ccmorph_cluster_color
  in
  Alcotest.(check int) "cluster image identical" base.Radiance.Radiance_bench.checksum
    cl.Radiance.Radiance_bench.checksum;
  Alcotest.(check int) "colored image identical" base.Radiance.Radiance_bench.checksum
    col.Radiance.Radiance_bench.checksum;
  Alcotest.(check int) "base has no morph cost" 0
    base.Radiance.Radiance_bench.morph_cycles;
  Alcotest.(check bool) "morph cost recorded" true
    (cl.Radiance.Radiance_bench.morph_cycles > 0)

let test_radiance_amortization_math () =
  let mk morph render =
    {
      Radiance.Radiance_bench.p_label = "x";
      cycles = morph + render;
      morph_cycles = morph;
      render_cycles = render;
      snapshot =
        {
          Memsim.Cost.s_busy = 0;
          s_load_stall = 0;
          s_store_stall = 0;
          s_prefetch_issue = 0;
          s_total = morph + render;
        };
      l1_miss_rate = 0.;
      l2_miss_rate = 0.;
      checksum = 0;
      octree_blocks = 0;
    }
  in
  let base = mk 0 100 in
  let cc = mk 300 70 in
  Alcotest.(check (option int)) "crossover" (Some 10)
    (Radiance.Radiance_bench.crossover_frames cc ~base);
  Alcotest.(check (float 1e-9)) "amortized at 10 frames" 1.
    (Radiance.Radiance_bench.amortized cc ~base ~frames:10);
  Alcotest.(check bool) "tends below 1" true
    (Radiance.Radiance_bench.amortized cc ~base ~frames:1000 < 0.8);
  let slower = mk 300 120 in
  Alcotest.(check (option int)) "no crossover when slower" None
    (Radiance.Radiance_bench.crossover_frames slower ~base)

(* --- Microbenchmark driver --- *)

let test_fig5_small () =
  let series =
    List.map
      (Micro.Tree_bench.fig5 ~keys:2047 ~searches:2000 ~checkpoints:[ 100; 2000 ])
      Micro.Tree_bench.all_variants
  in
  Alcotest.(check int) "four variants" 4 (List.length series);
  List.iter
    (fun s ->
      Alcotest.(check int) "two checkpoints" 2
        (List.length s.Micro.Tree_bench.points);
      List.iter
        (fun p ->
          Alcotest.(check bool) "positive cost" true
            (p.Micro.Tree_bench.avg_cycles > 0.))
        s.Micro.Tree_bench.points;
      Alcotest.(check bool) "cost decreases as cache warms" true
        (let first = List.hd s.Micro.Tree_bench.points in
         let last = List.nth s.Micro.Tree_bench.points 1 in
         last.Micro.Tree_bench.avg_cycles <= first.Micro.Tree_bench.avg_cycles))
    series

let test_fig5_validation () =
  Alcotest.check_raises "bad checkpoints"
    (Invalid_argument "Tree_bench: checkpoints must increase") (fun () ->
      ignore
        (Micro.Tree_bench.fig5 ~keys:100 ~searches:10 ~checkpoints:[ 5; 5 ]
           Micro.Tree_bench.Random_tree))

let test_fig10_small () =
  let pts = List.map (Micro.Tree_bench.fig10 ~searches:2000) [ 4095; 16383 ] in
  List.iter
    (fun p ->
      Alcotest.(check bool) "predicted positive" true
        (p.Micro.Tree_bench.predicted > 0.9);
      Alcotest.(check bool) "actual positive" true
        (p.Micro.Tree_bench.actual > 0.5))
    pts

let tests =
  [
    ( "vis",
      [
        Alcotest.test_case "counter reachability" `Quick test_counter_reach;
        Alcotest.test_case "gray-code reachability" `Quick test_gray_reach;
        Alcotest.test_case "shifter reachability" `Quick test_shifter_reach;
        Alcotest.test_case "lfsr reachability" `Quick test_lfsr_reach;
        Alcotest.test_case "token ring reachability" `Quick
          test_token_ring_reach;
        Alcotest.test_case "bench checksums verify" `Quick
          test_vis_bench_verifies;
        Alcotest.test_case "multiplier matches arithmetic" `Quick
          test_multiplier_oracle;
        Alcotest.test_case "adder commutes to same nodes" `Quick
          test_adder_commutes;
        Alcotest.test_case "bdd garbage collection" `Quick test_bdd_gc;
        QCheck_alcotest.to_alcotest prop_circuit_oracles;
      ] );
    ( "radiance",
      [
        Alcotest.test_case "octree matches scene" `Quick test_scene_consistency;
        Alcotest.test_case "image invariant under morph" `Quick
          test_radiance_invariant;
        Alcotest.test_case "amortization math" `Quick
          test_radiance_amortization_math;
      ] );
    ( "micro",
      [
        Alcotest.test_case "fig5 mechanics" `Quick test_fig5_small;
        Alcotest.test_case "fig5 validation" `Quick test_fig5_validation;
        Alcotest.test_case "fig10 mechanics" `Quick test_fig10_small;
      ] );
  ]
