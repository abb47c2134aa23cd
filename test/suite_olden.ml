(* Integration tests for the Olden benchmark reproductions: correctness
   oracles and placement-invariance of results. *)

module C = Olden.Common
module Ex = Harness.Experiments

let small_treeadd = { Olden.Treeadd.levels = 10; passes = 1 }

let small_health =
  { Olden.Health.levels = 2; steps = 60; morph_interval = 20; seed = 5 }

let small_mst = { Olden.Mst.vertices = 64; degree = 4; seed = 3 }
let small_perimeter = { Olden.Perimeter.size = 64; seed = 7 }

(* The MST weight by a plain OCaml Prim's over the same generated graph,
   with no simulated memory involved. *)
let mst_oracle_weight params =
  let n = params.Olden.Mst.vertices in
  let adj = Array.make n [] in
  Olden.Mst.iter_edges params (fun i j w ->
      adj.(i) <- (j, w) :: adj.(i);
      adj.(j) <- (i, w) :: adj.(j));
  let dist = Array.make n max_int in
  let visited = Array.make n false in
  dist.(0) <- 0;
  let total = ref 0 in
  for _ = 1 to n do
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if (not visited.(v)) && (!best < 0 || dist.(v) < dist.(!best)) then
        best := v
    done;
    let u = !best in
    visited.(u) <- true;
    total := !total + dist.(u);
    List.iter
      (fun (v, w) -> if (not visited.(v)) && w < dist.(v) then dist.(v) <- w)
      adj.(u)
  done;
  !total

let placements = C.all_placements @ [ C.Null_hint_control ]

let test_treeadd_sum () =
  List.iter
    (fun p ->
      let r = Olden.Treeadd.run ~params:small_treeadd p in
      Alcotest.(check int)
        ("sum under " ^ C.label p)
        (Olden.Treeadd.expected_sum small_treeadd)
        r.C.checksum)
    placements

let test_treeadd_whole_vs_kernel () =
  let kernel = Olden.Treeadd.run ~params:small_treeadd C.Base in
  let whole = Olden.Treeadd.run ~params:small_treeadd ~measure_whole:true C.Base in
  Alcotest.(check bool) "whole-program run costs more" true
    (whole.C.snapshot.Memsim.Cost.s_total > kernel.C.snapshot.Memsim.Cost.s_total)

let test_health_invariant () =
  let base = Olden.Health.run ~params:small_health C.Base in
  List.iter
    (fun p ->
      let r = Olden.Health.run ~params:small_health p in
      Alcotest.(check int) ("checksum under " ^ C.label p) base.C.checksum
        r.C.checksum)
    placements;
  Alcotest.(check bool) "some patients processed" true (base.C.checksum > 1000)

let test_health_deterministic () =
  let a = Olden.Health.run ~params:small_health C.Base in
  let b = Olden.Health.run ~params:small_health C.Base in
  Alcotest.(check int) "same cycles" a.C.snapshot.Memsim.Cost.s_total
    b.C.snapshot.Memsim.Cost.s_total;
  Alcotest.(check int) "same checksum" a.C.checksum b.C.checksum

let test_mst_weight_oracle () =
  let expected = mst_oracle_weight small_mst in
  List.iter
    (fun p ->
      let r = Olden.Mst.run ~params:small_mst p in
      Alcotest.(check int) ("mst weight under " ^ C.label p) expected
        r.C.checksum)
    placements

let test_perimeter_oracle () =
  let expected = Olden.Perimeter.oracle_perimeter small_perimeter in
  List.iter
    (fun p ->
      let r = Olden.Perimeter.run ~params:small_perimeter p in
      Alcotest.(check int)
        ("perimeter under " ^ C.label p)
        expected r.C.checksum)
    placements

let test_labels_and_ctx () =
  Alcotest.(check int) "eight figure-7 placements" 8
    (List.length C.all_placements);
  List.iter
    (fun p ->
      let ctx = C.make_ctx p in
      Alcotest.(check bool)
        ("allocator wired for " ^ C.label p)
        true
        (String.length ctx.C.alloc.Alloc.Allocator.name > 0);
      match p with
      | C.Sw_prefetch ->
          Alcotest.(check bool) "sw flag" true ctx.C.sw_prefetch
      | C.Ccmorph_cluster ->
          Alcotest.(check bool) "morph params, no color" true
            (match ctx.C.morph_params with
            | Some mp -> not mp.Ccsl.Ccmorph.color
            | None -> false)
      | C.Ccmorph_cluster_color ->
          Alcotest.(check bool) "morph params with color" true
            (match ctx.C.morph_params with
            | Some mp -> mp.Ccsl.Ccmorph.color
            | None -> false)
      | _ -> ())
    placements

let test_hw_prefetch_only_for_hp () =
  let hp = C.make_ctx C.Hw_prefetch in
  let base = C.make_ctx C.Base in
  Alcotest.(check bool) "hp machine has prefetcher" true
    (Memsim.Hierarchy.hw_prefetch_enabled (Memsim.Machine.hierarchy hp.C.machine));
  Alcotest.(check bool) "base machine does not" false
    (Memsim.Hierarchy.hw_prefetch_enabled
       (Memsim.Machine.hierarchy base.C.machine))

let test_normalized () =
  let base = Olden.Treeadd.run ~params:small_treeadd C.Base in
  Alcotest.(check (float 1e-9)) "base normalizes to 1" 1.
    (C.normalized base ~base)

let test_placement_names () =
  let all = C.Null_hint_control :: C.all_placements in
  Alcotest.(check int) "nine placements" 9 (List.length all);
  List.iter
    (fun p ->
      Alcotest.(check bool) (C.label p ^ " parses") true
        (C.of_string (C.label p) = Some p))
    all;
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " parses") true (C.of_string name = Some p))
    [
      ("base", C.Base);
      ("hw-prefetch", C.Hw_prefetch);
      ("sw-prefetch", C.Sw_prefetch);
      ("first-fit", C.Ccmalloc_first_fit);
      ("closest", C.Ccmalloc_closest);
      ("new-block", C.Ccmalloc_new_block);
      ("cluster", C.Ccmorph_cluster);
      ("cluster-color", C.Ccmorph_cluster_color);
      ("null-hint", C.Null_hint_control);
      ("Cluster-Color", C.Ccmorph_cluster_color);
    ];
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S is unknown" s) true
        (C.of_string s = None))
    [ ""; "malloc"; "cluster+color"; "nullhint " ]

(* Every harness finds its kernel in the one table, so an unknown name
   must come back [None] before anything runs.  A rejection allocates a
   few hundred host bytes; building any machine, whatever its caches,
   allocates tens of kilobytes. *)
let test_kernel_table_names () =
  Alcotest.(check (list string)) "Table 2 order"
    [ "treeadd"; "health"; "mst"; "perimeter" ]
    Ex.olden_names;
  Alcotest.(check (list string)) "kernels carry the names" Ex.olden_names
    (List.map (fun k -> k.Ex.k_name) (Ex.olden_kernels Ex.Quick));
  List.iter
    (fun name ->
      Alcotest.(check (option string)) ("lookup " ^ name) (Some name)
        (Option.map (fun k -> k.Ex.k_name) (Ex.olden_kernel Ex.Paper name)))
    Ex.olden_names;
  let allocated f =
    let before = Gc.allocated_bytes () in
    let x = f () in
    (x, Gc.allocated_bytes () -. before)
  in
  let _, machine_bytes = allocated (fun () -> C.make_ctx C.Base) in
  let rejects what run =
    let r, bytes = allocated run in
    Alcotest.(check bool) (what ^ " is None") true (Option.is_none r);
    if bytes >= machine_bytes /. 8. then
      Alcotest.failf "%s allocated %.0f bytes, a machine takes %.0f" what
        bytes machine_bytes
  in
  rejects "olden_kernel" (fun () -> Ex.olden_kernel Ex.Quick "treeadd2");
  rejects "Profiles.run" (fun () -> Harness.Profiles.run "treeadd2");
  rejects "Whole_program.run" (fun () ->
      Harness.Whole_program.run "treeadd2")

let prop_treeadd_sum_any_size =
  QCheck.Test.make ~count:8 ~name:"treeadd sums correctly at any size"
    QCheck.(int_range 2 12)
    (fun levels ->
      let params = { Olden.Treeadd.levels; passes = 1 } in
      let r = Olden.Treeadd.run ~params Olden.Common.Ccmalloc_new_block in
      r.C.checksum = Olden.Treeadd.expected_sum params)

let prop_mst_matches_oracle =
  QCheck.Test.make ~count:6 ~name:"mst matches Prim oracle on random graphs"
    QCheck.(pair (int_range 16 96) (int_range 2 6))
    (fun (vertices, degree) ->
      let params = { Olden.Mst.vertices; degree; seed = vertices + degree } in
      let r = Olden.Mst.run ~params Olden.Common.Ccmorph_cluster in
      r.C.checksum = mst_oracle_weight params)

let prop_perimeter_matches_oracle =
  QCheck.Test.make ~count:5 ~name:"perimeter matches pixel-grid oracle"
    QCheck.(int_range 3 6)
    (fun logsize ->
      let params = { Olden.Perimeter.size = 1 lsl logsize; seed = 7 } in
      let r = Olden.Perimeter.run ~params Olden.Common.Ccmorph_cluster_color in
      r.C.checksum = Olden.Perimeter.oracle_perimeter params)

(* The kernels' fixed morph schedule at quick scale, counted through
   the ccmorph observer hook: treeadd, mst and perimeter morph once at
   start-up, health every [morph_interval] (50) of its 365 steps, and a
   placement without ccmorph never morphs. *)
let test_fixed_morph_schedule () =
  let morphs = ref 0 in
  let id = Ccsl.Ccmorph.add_observer (fun _ -> incr morphs) in
  Fun.protect
    ~finally:(fun () -> Ccsl.Ccmorph.remove_observer id)
    (fun () ->
      List.iter
        (fun (k : Ex.kernel) ->
          let scheduled = if k.k_name = "health" then 7 else 1 in
          List.iter
            (fun (p, want) ->
              morphs := 0;
              ignore (k.k_run (C.make_ctx p));
              Alcotest.(check int)
                (Printf.sprintf "%s under %s" k.k_name (C.label p))
                want !morphs)
            [
              (C.Ccmorph_cluster, scheduled);
              (C.Ccmorph_cluster_color, scheduled);
              (C.Ccmalloc_new_block, 0);
            ])
        (Ex.olden_kernels Ex.Quick))

(* [ccsl-cli run]'s three static arms: in order, computing one answer,
   and both placements beating the base on treeadd's deep, repeatedly
   traversed tree. *)
let test_whole_program_arms () =
  match Harness.Whole_program.run "treeadd" with
  | None -> Alcotest.fail "treeadd must be a known benchmark"
  | Some r ->
      let arm label =
        (List.find
           (fun a -> a.Harness.Whole_program.arm_label = label)
           r.Harness.Whole_program.arms)
          .Harness.Whole_program.arm_result
      in
      Alcotest.(check (list string)) "three arms in order"
        [ "base"; "static"; "static-ccmalloc" ]
        (List.map
           (fun a -> a.Harness.Whole_program.arm_label)
           r.Harness.Whole_program.arms);
      let base = arm "base" in
      List.iter
        (fun label ->
          let res = arm label in
          Alcotest.(check int) (label ^ " checksum") base.C.checksum
            res.C.checksum;
          Alcotest.(check bool) (label ^ " beats base") true
            (C.normalized res ~base < 1.))
        [ "static"; "static-ccmalloc" ];
      Alcotest.(check string) "static-ccmalloc runs on ccmalloc new-block"
        "NA" (arm "static-ccmalloc").C.r_label

(* The reference is the committed BENCH_run.json, which
   [ccsl-cli run treeadd --json] writes, found from the test binary's
   path (dune copies it to the build root as a dependency) so the test
   runs from any working directory: the arms [Parallel.map] reassembles
   (forked wherever the machine has more than one core) must export
   byte-identically to it. *)
let test_whole_program_matches_golden () =
  match Harness.Whole_program.run "treeadd" with
  | None -> Alcotest.fail "treeadd must be a known benchmark"
  | Some r ->
      let golden =
        In_channel.with_open_bin
          (Filename.concat
             (Filename.dirname Sys.executable_name)
             "../BENCH_run.json")
          In_channel.input_all
      in
      let export =
        Obs.Export.envelope ~experiment:"run-treeadd"
          (Harness.Whole_program.to_json r)
      in
      Alcotest.(check string) "forked arms reassemble byte-identically" golden
        (Obs.Json.to_string export ^ "\n")

let tests =
  [
    ( "olden",
      [
        Alcotest.test_case "treeadd sum across placements" `Quick
          test_treeadd_sum;
        Alcotest.test_case "whole-program vs kernel measurement" `Quick
          test_treeadd_whole_vs_kernel;
        Alcotest.test_case "health checksum invariant" `Quick
          test_health_invariant;
        Alcotest.test_case "health deterministic" `Quick
          test_health_deterministic;
        Alcotest.test_case "mst weight matches oracle" `Quick
          test_mst_weight_oracle;
        Alcotest.test_case "perimeter matches oracle" `Quick
          test_perimeter_oracle;
        Alcotest.test_case "placement plumbing" `Quick test_labels_and_ctx;
        Alcotest.test_case "hw prefetch wiring" `Quick
          test_hw_prefetch_only_for_hp;
        Alcotest.test_case "normalization" `Quick test_normalized;
        Alcotest.test_case "placement names round-trip" `Quick
          test_placement_names;
        Alcotest.test_case "kernel table and unknown names" `Quick
          test_kernel_table_names;
        QCheck_alcotest.to_alcotest prop_treeadd_sum_any_size;
        QCheck_alcotest.to_alcotest prop_mst_matches_oracle;
        QCheck_alcotest.to_alcotest prop_perimeter_matches_oracle;
        Alcotest.test_case "fixed morph schedule" `Slow
          test_fixed_morph_schedule;
        Alcotest.test_case "whole-program static arms" `Quick
          test_whole_program_arms;
        Alcotest.test_case "forked run treeadd == BENCH_run.json" `Quick
          test_whole_program_matches_golden;
      ] );
  ]
