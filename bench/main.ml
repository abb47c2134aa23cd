(* Benchmark harness.

   Two layers:

   1. Bechamel micro-benchmarks — one [Test.make] per paper table/figure,
      timing the OCaml kernels that regenerate that artifact (harness
      health: how fast the simulator itself runs, not paper claims).

   2. The reproduction output — every table and figure of the paper's
      evaluation printed from the simulators (this is what
      EXPERIMENTS.md archives).

   Usage:
     dune exec bench/main.exe                 # bechamel + quick-scale tables
     dune exec bench/main.exe -- --paper      # bechamel + paper-scale tables
     dune exec bench/main.exe -- --no-bechamel
     dune exec bench/main.exe -- --no-tables
     dune exec bench/main.exe -- --seed 42    # reseed the workloads

   Each reproduction experiment additionally writes its results as
   versioned JSON to BENCH_<name>.json in the working directory. *)

open Bechamel
open Toolkit

let make_machine () = Memsim.Machine.create (Memsim.Config.tiny ())

(* --- Figure 5: tree search kernels --- *)

let bench_fig5_ctree =
  let keys = Array.init 4095 (fun i -> i) in
  let m = Memsim.Machine.create (Memsim.Config.ultrasparc_e5000 ()) in
  let t = Structures.Bst.build m (Structures.Bst.Random (Workload.Rng.create 1)) ~keys in
  let r = Ccsl.Ccmorph.morph m (Structures.Bst.desc ~elem_bytes:20) ~root:t.Structures.Bst.root in
  let t = Structures.Bst.of_root m ~elem_bytes:20 ~n:4095 r.Ccsl.Ccmorph.new_root in
  let rng = Workload.Rng.create 2 in
  Test.make ~name:"fig5-ctree-100-searches"
    (Staged.stage (fun () ->
         for _ = 1 to 100 do
           ignore (Structures.Bst.search t keys.(Workload.Rng.int rng 4095))
         done))

let bench_fig5_btree =
  let keys = Array.init 4095 (fun i -> i) in
  let m = Memsim.Machine.create (Memsim.Config.ultrasparc_e5000 ()) in
  let t = Structures.Btree.build m ~keys in
  let rng = Workload.Rng.create 3 in
  Test.make ~name:"fig5-btree-100-searches"
    (Staged.stage (fun () ->
         for _ = 1 to 100 do
           ignore (Structures.Btree.search t keys.(Workload.Rng.int rng 4095))
         done))

(* --- Figure 6: macrobenchmark kernels --- *)

let bench_fig6_radiance =
  let params =
    {
      Radiance.Radiance_bench.scene_size = 64;
      spheres = 6;
      width = 12;
      height = 12;
      step = 4;
      seed = 4;
    }
  in
  Test.make ~name:"fig6-radiance-small-render"
    (Staged.stage (fun () ->
         ignore (Radiance.Radiance_bench.run ~params Radiance.Radiance_bench.Base)))

let bench_fig6_vis =
  Test.make ~name:"fig6-vis-counter5-reach"
    (Staged.stage (fun () ->
         let m = make_machine () in
         ignore
           (Vis.Reach.run ~unique_bits:8 ~cache_bits:8 m (Vis.Circuit.counter 5))))

(* --- Table 1 / machine kernels --- *)

let bench_table1_hierarchy =
  let m = Memsim.Machine.create (Memsim.Config.rsim_table1 ()) in
  let base = Memsim.Machine.reserve m ~bytes:(1 lsl 20) ~align:128 in
  let rng = Workload.Rng.create 4 in
  Test.make ~name:"table1-hierarchy-1k-accesses"
    (Staged.stage (fun () ->
         for _ = 1 to 1000 do
           ignore (Memsim.Machine.load32 m (base + (Workload.Rng.int rng 65536 * 4)))
         done))

(* --- Table 2 / structure construction kernels --- *)

let bench_table2_treeadd_build =
  Test.make ~name:"table2-treeadd-build-2k"
    (Staged.stage (fun () ->
         ignore
           (Olden.Treeadd.run
              ~params:{ Olden.Treeadd.levels = 11; passes = 1 }
              Olden.Common.Base)))

(* --- Figure 7: Olden kernels --- *)

let bench_fig7_health =
  Test.make ~name:"fig7-health-small"
    (Staged.stage (fun () ->
         ignore
           (Olden.Health.run
              ~params:
                { Olden.Health.levels = 2; steps = 30; morph_interval = 10; seed = 1 }
              Olden.Common.Ccmorph_cluster_color)))

let bench_fig7_mst =
  Test.make ~name:"fig7-mst-small"
    (Staged.stage (fun () ->
         ignore
           (Olden.Mst.run
              ~params:{ Olden.Mst.vertices = 64; degree = 4; seed = 9 }
              Olden.Common.Ccmalloc_new_block)))

let bench_fig7_perimeter =
  Test.make ~name:"fig7-perimeter-small"
    (Staged.stage (fun () ->
         ignore
           (Olden.Perimeter.run
              ~params:{ Olden.Perimeter.size = 64; seed = 7 }
              Olden.Common.Ccmorph_cluster)))

(* --- 4.4 control: allocator kernels --- *)

let bench_control_ccmalloc =
  let m = make_machine () in
  let cc = Ccsl.Ccmalloc.create m in
  Test.make ~name:"control-ccmalloc-100-allocs"
    (Staged.stage (fun () ->
         let last = ref Memsim.Addr.null in
         for _ = 1 to 100 do
           last := Ccsl.Ccmalloc.alloc cc ~hint:!last 16
         done))

let bench_control_malloc =
  let m = make_machine () in
  let ma = Alloc.Malloc.create m in
  Test.make ~name:"control-malloc-100-allocs"
    (Staged.stage (fun () ->
         for _ = 1 to 100 do
           ignore (Alloc.Malloc.alloc ma 16)
         done))

(* --- Figure 10: analytic model kernel --- *)

let bench_fig10_model =
  Test.make ~name:"fig10-model-prediction"
    (Staged.stage (fun () ->
         let lat = { Memsim.Hierarchy.l1_hit = 1; l1_miss = 6; l2_miss = 64 } in
         for n = 10 to 22 do
           ignore
             (Ccsl.Model.Ctree.predicted_speedup ~lat ~n:(1 lsl n) ~sets:16384
                ~assoc:1 ~block_elems:3 ~color_frac:0.5 ~ml1_cc:1.)
         done))

let benchmarks =
  Test.make_grouped ~name:"ccsl"
    [
      bench_fig5_ctree;
      bench_fig5_btree;
      bench_fig6_radiance;
      bench_fig6_vis;
      bench_table1_hierarchy;
      bench_table2_treeadd_build;
      bench_fig7_health;
      bench_fig7_mst;
      bench_fig7_perimeter;
      bench_control_ccmalloc;
      bench_control_malloc;
      bench_fig10_model;
    ]

let run_bechamel () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances benchmarks in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
    |> Analyze.merge ols instances
  in
  let () =
    Bechamel_notty.Unit.add Instance.monotonic_clock
      (Measure.unit Instance.monotonic_clock)
  in
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.eol img |> Notty_unix.output_image

let rec seed_of_args = function
  | "--seed" :: v :: _ -> Some (int_of_string v)
  | _ :: rest -> seed_of_args rest
  | [] -> None

let () =
  let args = Array.to_list Sys.argv in
  let paper = List.mem "--paper" args || List.mem "--full" args in
  let no_bechamel = List.mem "--no-bechamel" args in
  let no_tables = List.mem "--no-tables" args in
  let seed = seed_of_args args in
  if not no_bechamel then begin
    print_endline "=== Bechamel kernel timings (simulator health) ===";
    run_bechamel ();
    print_newline ()
  end;
  if not no_tables then begin
    print_endline "=== Paper reproduction output ===";
    let scale =
      if paper then Harness.Experiments.Paper else Harness.Experiments.Quick
    in
    let scale_name = Harness.Experiments.scale_name scale in
    let export name payload =
      let file = Printf.sprintf "BENCH_%s.json" name in
      Obs.Export.write_file file
        (Obs.Export.envelope ~experiment:name ~scale:scale_name ?seed payload);
      Printf.printf "wrote %s\n%!" file
    in
    List.iter
      (fun name ->
        match
          Harness.Experiments.run_named ~scale ?seed name Format.std_formatter
        with
        | Some payload -> export name payload
        | None -> ())
      Harness.Experiments.names;
    print_endline "=== Ablations and extensions ===";
    export "ablations" (Harness.Ablations.all ?seed Format.std_formatter);
    print_endline "=== Simulator self-benchmark ===";
    let simspeed = Harness.Simbench.run () in
    Format.printf "%a@." Harness.Simbench.pp simspeed;
    let file = "BENCH_simspeed.json" in
    Obs.Export.write_file file
      (Obs.Export.envelope ~experiment:"simbench"
         (Harness.Simbench.to_json simspeed));
    Printf.printf "wrote %s\n%!" file;
    print_endline "=== Layout-engine shootout (multi-level) ===";
    let shootout =
      List.filter_map
        (fun b ->
          match Harness.Layout_shootout.run ~scale ?seed b with
          | Some r ->
              Format.printf "%a@." Harness.Layout_shootout.pp r;
              Some (b, Harness.Layout_shootout.to_json r)
          | None -> None)
        [ "micro"; "treeadd" ]
    in
    let file = "BENCH_layout.json" in
    Obs.Export.write_file file
      (Obs.Export.envelope ~experiment:"layout" ~scale:scale_name ?seed
         (Obs.Json.Obj shootout));
    Printf.printf "wrote %s\n%!" file
  end
