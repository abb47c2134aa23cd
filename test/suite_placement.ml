(* Tests for Coloring, the subtree and linear plans, and the analytic
   Model against the simulator. *)

module Machine = Memsim.Machine
module Config = Memsim.Config
module CC = Memsim.Cache_config
module Coloring = Ccsl.Coloring
module Plan = Layout.Plan
module Model = Ccsl.Model

(* --- Coloring --- *)

let tiny_l2 = CC.v ~name:"l2" ~sets:256 ~assoc:1 ~block_bytes:64 ()
(* stripe = 16 KB; with 1 KB pages, sets_per_page = 16 *)

let mk_coloring ?color_frac () =
  Coloring.v ?color_frac ~l2:tiny_l2 ~page_bytes:1024 ()

let test_coloring_p_rounding () =
  let c = mk_coloring () in
  (* 0.5 * 256 = 128 sets; already a multiple of 16 sets/page *)
  Alcotest.(check int) "p" 128 c.Coloring.hot_sets;
  let c2 = mk_coloring ~color_frac:0.3 () in
  (* 76.8 -> rounded down to 64 (a page multiple) *)
  Alcotest.(check int) "p rounded to page multiple" 64 c2.Coloring.hot_sets;
  Alcotest.(check int) "stripe" (256 * 64) (Coloring.stripe_bytes c);
  Alcotest.(check int) "hot stripe" (128 * 64) (Coloring.hot_stripe_bytes c)

let test_coloring_regions () =
  let c = mk_coloring () in
  let m = Machine.create (Config.tiny ()) in
  (* tiny machine's L2 is 256x64 too *)
  let ar = Coloring.arenas m c in
  let hot = Array.init 200 (fun _ -> Coloring.next_hot_block ar) in
  let cold = Array.init 200 (fun _ -> Coloring.next_cold_block ar) in
  Array.iter
    (fun a ->
      Alcotest.(check bool) "hot block in hot sets" true
        (CC.set_of_addr tiny_l2 a < 128))
    hot;
  Array.iter
    (fun a ->
      Alcotest.(check bool) "cold block in cold sets" true
        (CC.set_of_addr tiny_l2 a >= 128))
    cold;
  (* hot blocks never conflict among themselves within capacity *)
  let sets = Array.map (fun a -> CC.set_of_addr tiny_l2 a) (Array.sub hot 0 128) in
  let uniq = List.sort_uniq compare (Array.to_list sets) in
  Alcotest.(check int) "first p hot blocks pairwise conflict-free" 128
    (List.length uniq)

let test_coloring_capacity () =
  let c = mk_coloring () in
  Alcotest.(check int) "capacity blocks = p * assoc" 128
    (Coloring.hot_capacity_blocks c);
  let c2 =
    Coloring.v ~l2:(CC.v ~name:"a2" ~sets:256 ~assoc:2 ~block_bytes:64 ())
      ~page_bytes:1024 ()
  in
  Alcotest.(check int) "2-way doubles capacity" 256
    (Coloring.hot_capacity_blocks c2)

let test_coloring_validation () =
  Alcotest.check_raises "frac out of range"
    (Invalid_argument "Coloring.v: color_frac must be in (0, 1)") (fun () ->
      ignore (Coloring.v ~color_frac:1.5 ~l2:tiny_l2 ~page_bytes:1024 ()));
  Alcotest.check_raises "unaligned hot start"
    (Invalid_argument "Coloring.v: hot_first_set must be a page multiple")
    (fun () ->
      ignore (Coloring.v ~hot_first_set:3 ~l2:tiny_l2 ~page_bytes:1024 ()))

let test_coloring_offset_regions () =
  (* hot region placed mid-cache: sets [64, 128) of 256 *)
  let c = Coloring.v ~color_frac:0.25 ~hot_first_set:64 ~l2:tiny_l2 ~page_bytes:1024 () in
  Alcotest.(check int) "p" 64 c.Coloring.hot_sets;
  let m = Machine.create (Config.tiny ()) in
  let ar = Coloring.arenas m c in
  for _ = 1 to 100 do
    let a = Coloring.next_hot_block ar in
    let set = CC.set_of_addr tiny_l2 a in
    Alcotest.(check bool) "hot set in [64,128)" true (set >= 64 && set < 128)
  done;
  for _ = 1 to 300 do
    let a = Coloring.next_cold_block ar in
    let set = CC.set_of_addr tiny_l2 a in
    Alcotest.(check bool) "cold set outside [64,128)" true
      (set < 64 || set >= 128)
  done;
  (* region_of_addr agrees *)
  let h = Coloring.next_hot_block ar and cl = Coloring.next_cold_block ar in
  Alcotest.(check bool) "hot classified" true (Coloring.region_of_addr c h = `Hot);
  Alcotest.(check bool) "cold classified" true (Coloring.region_of_addr c cl = `Cold)

let test_disjoint_colorings () =
  (* two colorings with disjoint hot regions never collide *)
  let c1 = Coloring.v ~color_frac:0.25 ~hot_first_set:0 ~l2:tiny_l2 ~page_bytes:1024 () in
  let c2 = Coloring.v ~color_frac:0.25 ~hot_first_set:64 ~l2:tiny_l2 ~page_bytes:1024 () in
  let m = Machine.create (Config.tiny ()) in
  let a1 = Coloring.arenas m c1 and a2 = Coloring.arenas m c2 in
  for _ = 1 to 200 do
    let s1 = CC.set_of_addr tiny_l2 (Coloring.next_hot_block a1) in
    let s2 = CC.set_of_addr tiny_l2 (Coloring.next_hot_block a2) in
    Alcotest.(check bool) "regions disjoint" true (s1 < 64 && s2 >= 64 && s2 < 128)
  done

(* --- Subtree and linear plans --- *)

(* complete binary tree as index arrays: node i has kids 2i+1, 2i+2 *)
let complete_kids n i =
  List.filter (fun k -> k < n) [ (2 * i) + 1; (2 * i) + 2 ]

(* The paper's scheme over a tree rooted at node 0, as an array of blocks
   in the caller's ids. *)
let subtree_blocks ~n ~kids ~k =
  let t, ids = Layout.Tree.of_kids ~n ~kids ~roots:[ 0 ] () in
  let plan = Layout.Subtree.plan t ~k in
  Array.init (Plan.nblocks plan) (fun j ->
      Array.init
        (plan.Plan.starts.(j + 1) - plan.Plan.starts.(j))
        (fun i -> ids.(plan.Plan.order.(plan.Plan.starts.(j) + i))))

(* Every node in exactly one block, no block empty or over [k]. *)
let check_partition blocks ~n ~k =
  Array.iter
    (fun b -> Alcotest.(check bool) "block of 1..k nodes" true
        (Array.length b >= 1 && Array.length b <= k))
    blocks;
  Alcotest.(check (array int)) "every node once" (Array.init n Fun.id)
    (List.sort compare (Array.to_list (Array.concat (Array.to_list blocks)))
    |> Array.of_list)

let test_subtree_plan_binary () =
  let n = 15 in
  let blocks = subtree_blocks ~n ~kids:(complete_kids n) ~k:3 in
  check_partition blocks ~n ~k:3;
  (* k=3 on a complete binary tree: each block is parent + two kids *)
  Alcotest.(check int) "5 blocks" 5 (Array.length blocks);
  Alcotest.(check (array int)) "root block" [| 0; 1; 2 |] blocks.(0);
  (* each non-root block is a parent with its two children *)
  Array.iteri
    (fun j b ->
      if j > 0 then begin
        Alcotest.(check int) "block size" 3 (Array.length b);
        Alcotest.(check int) "left kid" ((2 * b.(0)) + 1) b.(1);
        Alcotest.(check int) "right kid" ((2 * b.(0)) + 2) b.(2)
      end)
    blocks

let test_subtree_blocks_near_root_first () =
  let n = 127 in
  let blocks = subtree_blocks ~n ~kids:(complete_kids n) ~k:3 in
  (* node depth is monotone non-decreasing across block emission order *)
  let depth i =
    let rec go i d = if i = 0 then d else go ((i - 1) / 2) (d + 1) in
    go i 0
  in
  let prev = ref 0 in
  Array.iter
    (fun b ->
      let d = depth b.(0) in
      Alcotest.(check bool) "roots of clusters get deeper" true (d >= !prev);
      prev := d)
    blocks

let test_linear_plan () =
  let order = [| 4; 2; 0; 1; 3 |] in
  let plan = Plan.chunk ~n:5 ~order ~k:2 in
  Alcotest.(check int) "3 blocks" 3 (Plan.nblocks plan);
  Alcotest.(check (array int)) "block starts" [| 0; 2; 4; 5 |] plan.Plan.starts;
  Alcotest.(check (array int)) "order kept" order plan.Plan.order;
  Alcotest.(check (array int)) "chunk 0 is 4, 2; the tail chunk is 3"
    [| 1; 1; 0; 2; 0 |] plan.Plan.block_of_node

let prop_subtree_partition =
  QCheck.Test.make ~count:100 ~name:"subtree plan partitions random trees"
    QCheck.(pair (int_range 1 200) (int_range 1 8))
    (fun (n, k) ->
      (* random tree: parent of i is a random j < i *)
      let rng = Workload.Rng.create (n * 31 + k) in
      let kids = Array.make n [] in
      for i = n - 1 downto 1 do
        let p = Workload.Rng.int rng i in
        kids.(p) <- i :: kids.(p)
      done;
      check_partition (subtree_blocks ~n ~kids:(fun i -> kids.(i)) ~k) ~n ~k;
      true)

let prop_linear_partition =
  QCheck.Test.make ~count:100 ~name:"linear plan partitions permutations"
    QCheck.(pair (int_range 1 200) (int_range 1 8))
    (fun (n, k) ->
      let rng = Workload.Rng.create (n + k) in
      let order = Workload.Rng.permutation rng n in
      let plan = Plan.chunk ~n ~order ~k in
      Plan.nblocks plan = (n + k - 1) / k
      && Array.for_all2
           (fun v i -> plan.Plan.block_of_node.(v) = i / k)
           order (Array.init n Fun.id))

(* --- Model --- *)

let lat = { Memsim.Hierarchy.l1_hit = 1; l1_miss = 6; l2_miss = 64 }

let test_miss_rate_formula () =
  Alcotest.(check (float 1e-9)) "worst case" 1.
    (Model.miss_rate ~d:10. ~k:1. ~r:0.);
  Alcotest.(check (float 1e-9)) "full reuse" 0.
    (Model.miss_rate ~d:10. ~k:2. ~r:10.);
  Alcotest.(check (float 1e-9)) "paper form" ((1. -. 0.5) /. 2.)
    (Model.miss_rate ~d:10. ~k:2. ~r:5.);
  Alcotest.check_raises "r > d rejected"
    (Invalid_argument "Model.miss_rate: r outside [0, d]") (fun () ->
      ignore (Model.miss_rate ~d:5. ~k:1. ~r:6.))

let test_memory_access_time () =
  Alcotest.(check (float 1e-9)) "all hit" 1.
    (Model.memory_access_time lat ~ml1:0. ~ml2:0. ~refs:1.);
  Alcotest.(check (float 1e-9)) "all miss" 71.
    (Model.memory_access_time lat ~ml1:1. ~ml2:1. ~refs:1.);
  Alcotest.(check (float 1e-9)) "scales with refs" 142.
    (Model.memory_access_time lat ~ml1:1. ~ml2:1. ~refs:2.)

let test_speedup_identity () =
  Alcotest.(check (float 1e-9)) "same layout -> 1" 1.
    (Model.speedup lat ~naive:(0.5, 0.5) ~cc:(0.5, 0.5));
  let s = Model.speedup lat ~naive:Model.worst_case_naive ~cc:(1., 0.25) in
  Alcotest.(check (float 1e-9)) "reduced L2 misses" (71. /. 23.) s

let test_ctree_forms () =
  (* Figure 9 with n = 2^21-1, c = 16384 sets, k = 3, a = 1, frac = 1/2 *)
  let d = Model.Ctree.d ~n:((1 lsl 21) - 1) in
  Alcotest.(check (float 1e-9)) "D = log2(n+1)" 21. d;
  Alcotest.(check (float 1e-9)) "K = log2(k+1)" 2. (Model.Ctree.k ~block_elems:3);
  let rs =
    Model.Ctree.r_s ~sets:16384 ~assoc:1 ~block_elems:3 ~color_frac:0.5
  in
  (* log2(0.5 * 16384 * 3 + 1) = log2(24577) ~ 14.585 *)
  Alcotest.(check (float 0.001)) "Rs" 14.585 rs;
  let mr =
    Model.Ctree.miss_rate ~n:((1 lsl 21) - 1) ~sets:16384 ~assoc:1
      ~block_elems:3 ~color_frac:0.5
  in
  Alcotest.(check (float 0.001)) "steady-state miss rate" 0.1527 mr

let test_ctree_monotonicity () =
  (* larger trees -> higher miss rate -> lower speedup; tree that fits in
     the hot region -> zero misses *)
  let mr n =
    Model.Ctree.miss_rate ~n ~sets:16384 ~assoc:1 ~block_elems:3
      ~color_frac:0.5
  in
  Alcotest.(check (float 1e-9)) "fits entirely" 0. (mr 1000);
  Alcotest.(check bool) "monotone" true (mr (1 lsl 22) > mr (1 lsl 20));
  let sp n =
    Model.Ctree.predicted_speedup ~lat ~n ~sets:16384 ~assoc:1 ~block_elems:3
      ~color_frac:0.5 ~ml1_cc:1.
  in
  Alcotest.(check bool) "speedup decreases with n" true
    (sp (1 lsl 20) > sp (1 lsl 22));
  Alcotest.(check bool) "speedup > 1 at paper sizes" true (sp (1 lsl 21) > 1.)

(* The model as an oracle: Figure 10 run on the simulator.  The bands
   are the measured values at the default seed widened by about 0.03;
   seeds 1 and 7 land within 0.004 of them.  The model's naive tree
   misses on every reference while the simulated one still caches its
   top levels, so measured/predicted stays below 1 and rises with size
   as the naive tree's cached share shrinks. *)

module Tb = Micro.Tree_bench

let e5000_l2 = (Config.ultrasparc_e5000 ()).Config.l2
let block_elems = e5000_l2.CC.block_bytes / Structures.Bst.default_elem_bytes

(* Steady-state L2 misses per search of Figure 10's C-tree: a random
   tree morphed by ccmorph's defaults (subtree clustering, colored). *)
let ctree_l2_misses_per_search ~seed ~searches n =
  let keys = Array.init n (fun i -> i) in
  let m = Machine.create (Config.ultrasparc_e5000 ~tlb:true ()) in
  let alloc = Alloc.Malloc.allocator (Alloc.Malloc.create m) in
  let t =
    Tb.build ~alloc ~morph:Ccsl.Ccmorph.default_params m
      (Structures.Bst.Random (Workload.Rng.create seed)) ~keys
  in
  let rng = Workload.Rng.create (seed + 31) in
  ignore
    (Tb.measure m ~searches (fun _ ->
         ignore (Structures.Bst.search t keys.(Workload.Rng.int rng n))));
  let l2 = Memsim.Hierarchy.l2 (Machine.hierarchy m) in
  float_of_int (Memsim.Cache.misses (Memsim.Cache.stats l2))
  /. float_of_int searches

let test_fig10_oracle () =
  let seed = 2023 and searches = 30_000 in
  let predicted (log_n, lo, hi) =
    let n = 1 lsl log_n in
    let p = Tb.fig10 ~seed ~searches n in
    let ratio = p.Tb.actual /. p.Tb.predicted in
    Alcotest.(check bool)
      (Printf.sprintf "2^%d: measured/predicted %.3f in [%.2f, %.2f]" log_n
         ratio lo hi)
      true
      (lo <= ratio && ratio <= hi);
    (* Figure 9's miss rate is per examined node, D of them per search;
       it overestimates the C-tree's, by less than 2x *)
    let model =
      Model.Ctree.miss_rate ~n ~sets:e5000_l2.CC.sets ~assoc:e5000_l2.CC.assoc
        ~block_elems ~color_frac:0.5
    in
    let measured =
      ctree_l2_misses_per_search ~seed ~searches n /. Model.Ctree.d ~n
    in
    Alcotest.(check bool)
      (Printf.sprintf "2^%d: L2 misses per node %.4f in [m/2, m], m = %.4f"
         log_n measured model)
      true
      (model /. 2. <= measured && measured <= model);
    p.Tb.predicted
  in
  match List.map predicted [ (16, 0.53, 0.58); (17, 0.59, 0.65) ] with
  | [ small; large ] ->
      Alcotest.(check bool) "predicted speedup declines with size" true
        (small > large)
  | _ -> assert false

let tests =
  [
    ( "coloring",
      [
        Alcotest.test_case "p rounding" `Quick test_coloring_p_rounding;
        Alcotest.test_case "hot/cold regions" `Quick test_coloring_regions;
        Alcotest.test_case "capacity" `Quick test_coloring_capacity;
        Alcotest.test_case "validation" `Quick test_coloring_validation;
        Alcotest.test_case "offset hot region" `Quick
          test_coloring_offset_regions;
        Alcotest.test_case "disjoint colorings" `Quick test_disjoint_colorings;
      ] );
    ( "clustering",
      [
        Alcotest.test_case "binary subtree plan" `Quick test_subtree_plan_binary;
        Alcotest.test_case "near-root blocks first" `Quick
          test_subtree_blocks_near_root_first;
        Alcotest.test_case "linear plan" `Quick test_linear_plan;
        QCheck_alcotest.to_alcotest prop_subtree_partition;
        QCheck_alcotest.to_alcotest prop_linear_partition;
      ] );
    ( "model",
      [
        Alcotest.test_case "miss-rate formula" `Quick test_miss_rate_formula;
        Alcotest.test_case "memory access time" `Quick test_memory_access_time;
        Alcotest.test_case "speedup equation (Figure 8)" `Quick
          test_speedup_identity;
        Alcotest.test_case "C-tree closed forms (Figure 9)" `Quick
          test_ctree_forms;
        Alcotest.test_case "C-tree monotonicity" `Quick test_ctree_monotonicity;
        Alcotest.test_case "Figure 10 against the simulator" `Quick
          test_fig10_oracle;
      ] );
  ]
