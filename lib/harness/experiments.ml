module C = Olden.Common
module Tb = Micro.Tree_bench
module J = Obs.Json

type scale = Quick | Paper

let scale_name = function Quick -> "quick" | Paper -> "paper"
let section = Report.section
let pct = Report.pct

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)
(* ------------------------------------------------------------------ *)

let fig5_params = function
  | Quick ->
      ( (1 lsl 18) - 1,
        50_000,
        [ 10; 100; 1_000; 10_000; 50_000 ] )
  | Paper ->
      ( (1 lsl 21) - 1,
        1_000_000,
        [ 10; 100; 1_000; 10_000; 100_000; 1_000_000 ] )

let fig5 ?(scale = Quick) ?seed ppf =
  let keys, searches, checkpoints = fig5_params scale in
  section ppf
    (Printf.sprintf
       "Figure 5: tree microbenchmark -- avg cycles/search (E5000, %d keys)"
       keys);
  let series = Tb.fig5 ?seed ~keys ~searches ~checkpoints () in
  Format.fprintf ppf "%-10s" "searches";
  List.iter
    (fun s ->
      Format.fprintf ppf "%18s"
        (match s.Tb.variant with
        | Tb.Random_tree -> "random"
        | Tb.Dfs_tree -> "depth-first"
        | Tb.B_tree -> "B-tree"
        | Tb.C_tree -> "C-tree"))
    series;
  Format.fprintf ppf "@.";
  List.iteri
    (fun i cp ->
      Format.fprintf ppf "%-10d" cp;
      List.iter
        (fun s ->
          let p = List.nth s.Tb.points i in
          Format.fprintf ppf "%18.0f" p.Tb.avg_cycles)
        series;
      Format.fprintf ppf "@.")
    checkpoints;
  let final s = (List.nth s.Tb.points (List.length checkpoints - 1)).Tb.avg_cycles in
  let get v = final (List.find (fun s -> s.Tb.variant = v) series) in
  let ct = get Tb.C_tree in
  Format.fprintf ppf
    "@.C-tree speedups at %d searches: vs random %.2fx (paper: up to 4-5x), \
     vs depth-first %.2fx (paper: 2.5-3x), vs B-tree %.2fx (paper: 1.5x)@.@."
    searches (get Tb.Random_tree /. ct) (get Tb.Dfs_tree /. ct)
    (get Tb.B_tree /. ct);
  J.Obj
    [
      ("keys", J.Int keys);
      ("searches", J.Int searches);
      ( "series",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("variant", J.String (Tb.variant_name s.Tb.variant));
                   ( "points",
                     J.List
                       (List.map
                          (fun p ->
                            J.Obj
                              [
                                ("searches", J.Int p.Tb.searches);
                                ("avg_cycles", J.Float p.Tb.avg_cycles);
                              ])
                          s.Tb.points) );
                   ("total_cycles", J.Int s.Tb.total_cycles);
                   ("l2_miss_rate", J.Float s.Tb.l2_miss_rate);
                 ])
             series) );
      ( "ctree_speedups",
        J.Obj
          [
            ("vs_random", J.Float (get Tb.Random_tree /. ct));
            ("vs_dfs", J.Float (get Tb.Dfs_tree /. ct));
            ("vs_btree", J.Float (get Tb.B_tree /. ct));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)
(* ------------------------------------------------------------------ *)

let radiance_params = function
  | Quick ->
      {
        Radiance.Radiance_bench.scene_size = 256;
        spheres = 24;
        width = 64;
        height = 64;
        step = 4;
        seed = 11;
      }
  | Paper -> Radiance.Radiance_bench.default_params

let radiance_json (r : Radiance.Radiance_bench.result) =
  J.Obj
    [
      ("label", J.String r.Radiance.Radiance_bench.p_label);
      ("cycles", J.Int r.Radiance.Radiance_bench.cycles);
      ("morph_cycles", J.Int r.Radiance.Radiance_bench.morph_cycles);
      ("render_cycles", J.Int r.Radiance.Radiance_bench.render_cycles);
      ("l1_miss_rate", J.Float r.Radiance.Radiance_bench.l1_miss_rate);
      ("l2_miss_rate", J.Float r.Radiance.Radiance_bench.l2_miss_rate);
      ("checksum", J.Int r.Radiance.Radiance_bench.checksum);
    ]

let fig6 ?(scale = Quick) ?seed ppf =
  section ppf "Figure 6: RADIANCE and VIS macrobenchmarks (E5000)";
  (* RADIANCE *)
  let params =
    let p = radiance_params scale in
    match seed with
    | None -> p
    | Some s -> { p with Radiance.Radiance_bench.seed = s }
  in
  let base = Radiance.Radiance_bench.run ~params Radiance.Radiance_bench.Base in
  let cc =
    Radiance.Radiance_bench.run ~params
      Radiance.Radiance_bench.Ccmorph_cluster_color
  in
  let steady =
    float_of_int cc.Radiance.Radiance_bench.render_cycles
    /. float_of_int base.Radiance.Radiance_bench.render_cycles
  in
  Format.fprintf ppf
    "RADIANCE proxy (octree %d^3, %d kid blocks):@.\
    \  base render          : %d cycles@.\
    \  ccmorph cl+col render: %d cycles  -> steady-state norm %.2f \
     (paper: 0.70, a 42%% speedup)@.\
    \  reorganization cost  : %d cycles%s@."
    params.Radiance.Radiance_bench.scene_size
    base.Radiance.Radiance_bench.octree_blocks
    base.Radiance.Radiance_bench.render_cycles
    cc.Radiance.Radiance_bench.render_cycles steady
    cc.Radiance.Radiance_bench.morph_cycles
    (match Radiance.Radiance_bench.crossover_frames cc ~base with
    | Some f -> Printf.sprintf " (pays for itself after %d renders)" f
    | None -> " (no crossover at this scale)");
  let checksums_agree =
    base.Radiance.Radiance_bench.checksum = cc.Radiance.Radiance_bench.checksum
  in
  Format.fprintf ppf "  image checksums agree: %b@.@." checksums_agree;
  (* VIS *)
  let circuits =
    match scale with
    | Quick ->
        [
          Vis.Circuit.counter 7;
          Vis.Circuit.gray_counter 7;
          Vis.Circuit.shifter 14;
          Vis.Circuit.lfsr 8;
          Vis.Circuit.token_ring 12;
        ]
    | Paper -> Vis.Circuit.all_default
  in
  let vb = Vis.Vis_bench.run ~circuits Vis.Vis_bench.Base in
  let vc =
    Vis.Vis_bench.run ~circuits (Vis.Vis_bench.Ccmalloc Ccsl.Ccmalloc.New_block)
  in
  let vis_norm =
    float_of_int vc.Vis.Vis_bench.cycles /. float_of_int vb.Vis.Vis_bench.cycles
  in
  let vis_verified = Vis.Vis_bench.verify vb circuits && Vis.Vis_bench.verify vc circuits in
  Format.fprintf ppf
    "VIS proxy (reachability + 8-bit multiplier verification, %d nodes):@.\
    \  base (malloc)        : %d cycles@.\
    \  ccmalloc new-block   : %d cycles  -> norm %.2f (paper: 0.79, a 27%% \
     speedup)@.\
    \  reachability oracles verified: %b   a*b = b*a proved: %b@.@."
    vb.Vis.Vis_bench.total_nodes vb.Vis.Vis_bench.cycles
    vc.Vis.Vis_bench.cycles vis_norm vis_verified
    (vb.Vis.Vis_bench.mult_equivalent && vc.Vis.Vis_bench.mult_equivalent);
  J.Obj
    [
      ( "radiance",
        J.Obj
          [
            ("base", radiance_json base);
            ("ccmorph_cluster_color", radiance_json cc);
            ("steady_state_norm", J.Float steady);
            ("checksums_agree", J.Bool checksums_agree);
          ] );
      ( "vis",
        J.Obj
          [
            ("total_nodes", J.Int vb.Vis.Vis_bench.total_nodes);
            ("base_cycles", J.Int vb.Vis.Vis_bench.cycles);
            ("ccmalloc_new_block_cycles", J.Int vc.Vis.Vis_bench.cycles);
            ("norm", J.Float vis_norm);
            ("verified", J.Bool vis_verified);
            ( "mult_equivalent",
              J.Bool
                (vb.Vis.Vis_bench.mult_equivalent
                && vc.Vis.Vis_bench.mult_equivalent) );
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Table 1 / Table 2                                                   *)
(* ------------------------------------------------------------------ *)

let table1 ppf =
  section ppf "Table 1: simulation parameters (Olden benchmark machine)";
  let cfg = Memsim.Config.rsim_table1 () in
  Format.fprintf ppf "%a@.@." Memsim.Config.pp cfg;
  Obs.Export.config cfg

let olden_params ?seed scale =
  let ta, h, mst, per =
    match scale with
    | Quick ->
        ( { Olden.Treeadd.levels = 16; passes = 1 },
          { Olden.Health.default_params with Olden.Health.steps = 365 },
          Olden.Mst.default_params,
          { Olden.Perimeter.size = 1024; seed = 7 } )
    | Paper ->
        ( Olden.Treeadd.paper_params,
          Olden.Health.paper_params,
          Olden.Mst.paper_params,
          Olden.Perimeter.paper_params )
  in
  match seed with
  | None -> (ta, h, mst, per)
  | Some s ->
      ( ta,
        { h with Olden.Health.seed = s },
        { mst with Olden.Mst.seed = s + 1 },
        { per with Olden.Perimeter.seed = s + 2 } )

type kernel = {
  k_name : string;
  k_run : ?measure_whole:bool -> ?ctx:C.ctx -> C.placement -> C.result;
}

(* Every [Olden.*.run] shares one signature, so one constructor covers
   all four; [?config] is left out because callers that want another
   machine pass a [ctx] built on it. *)
let kernel k_name
    (run :
      ?params:'p ->
      ?measure_whole:bool ->
      ?config:Memsim.Config.t ->
      ?ctx:C.ctx ->
      C.placement ->
      C.result) params =
  {
    k_name;
    k_run = (fun ?measure_whole ?ctx p -> run ~params ?measure_whole ?ctx p);
  }

let treeadd = kernel "treeadd" Olden.Treeadd.run

let olden_kernels ?seed scale =
  let ta, h, mst, per = olden_params ?seed scale in
  [
    treeadd ta;
    kernel "health" Olden.Health.run h;
    kernel "mst" Olden.Mst.run mst;
    kernel "perimeter" Olden.Perimeter.run per;
  ]

let olden_names = List.map (fun k -> k.k_name) (olden_kernels Quick)

let olden_kernel ?seed scale name =
  List.find_opt (fun k -> k.k_name = name) (olden_kernels ?seed scale)

let table2 ?(scale = Quick) ?seed ppf =
  section ppf "Table 2: benchmark characteristics";
  let ta, h, mst, per = olden_params ?seed scale in
  let row name structure input mem =
    Format.fprintf ppf "%-10s %-26s %-24s %8s@." name structure input mem
  in
  row "Name" "Main structures" "Input data set" "Memory";
  let described =
    [
      ( "TreeAdd",
        "binary tree",
        Printf.sprintf "%d nodes" (Olden.Treeadd.nodes_of ta) );
      ( "Health",
        "doubly-linked lists",
        Printf.sprintf "level %d, %d steps" h.Olden.Health.levels
          h.Olden.Health.steps );
      ( "Mst",
        "array of chained hashes",
        Printf.sprintf "%d vertices" mst.Olden.Mst.vertices );
      ( "Perimeter",
        "quadtree",
        Printf.sprintf "%dx%d image" per.Olden.Perimeter.size
          per.Olden.Perimeter.size );
    ]
  in
  let rows =
    List.map2
      (fun (title, structure, input) k ->
        let r = k.k_run C.Base in
        row title structure input
          (Printf.sprintf "%d KB" (r.C.memory_bytes / 1024));
        J.Obj
          [
            ("name", J.String k.k_name);
            ("structure", J.String structure);
            ("input", J.String input);
            ("memory_bytes", J.Int r.C.memory_bytes);
          ])
      described
      (olden_kernels ?seed scale)
  in
  Format.fprintf ppf
    "(paper: 4 MB / 828 KB / 12 KB / 64 MB at its input sizes)@.@.";
  J.Obj [ ("rows", J.List rows) ]

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let fig7_one ppf k =
  Format.fprintf ppf
    "%-10s %-8s %12s %6s %6s %6s %6s %6s %9s@." k.k_name "config" "cycles"
    "norm" "busy%" "load%" "store%" "l2mr" "mem(KB)";
  let base = ref None in
  let rows =
    List.map
      (fun p ->
        let r = k.k_run p in
        if p = C.Base then base := Some r;
        let b = Option.get !base in
        let s = r.C.snapshot in
        Format.fprintf ppf "%-10s %-8s %12d %6.2f %6.1f %6.1f %6.1f %6.3f %9d@."
          k.k_name (C.label p) s.Memsim.Cost.s_total
          (C.normalized r ~base:b)
          (pct s.Memsim.Cost.s_busy s.Memsim.Cost.s_total)
          (pct s.Memsim.Cost.s_load_stall s.Memsim.Cost.s_total)
          (pct s.Memsim.Cost.s_store_stall s.Memsim.Cost.s_total)
          r.C.l2_miss_rate (r.C.memory_bytes / 1024);
        J.Obj
          [
            ("placement", J.String (C.label p));
            ("normalized", J.Float (C.normalized r ~base:b));
            ("result", Report.olden_result r);
          ])
      C.all_placements
  in
  Format.fprintf ppf "@.";
  J.Obj [ ("name", J.String k.k_name); ("rows", J.List rows) ]

let fig7 ?(scale = Quick) ?seed ppf =
  section ppf
    "Figure 7: Olden benchmarks under cache-conscious placement (RSIM \
     machine)";
  let benches = List.map (fig7_one ppf) (olden_kernels ?seed scale) in
  Format.fprintf ppf
    "(paper: ccmorph beats base by 28-138%% and prefetching by 3-138%%; \
     ccmalloc new-block@. beats prefetching by 20-194%% except treeadd; \
     shapes above should agree)@.@.";
  J.Obj [ ("benchmarks", J.List benches) ]

(* ------------------------------------------------------------------ *)
(* 4.4 control experiment                                              *)
(* ------------------------------------------------------------------ *)

let control ?(scale = Quick) ?seed ppf =
  section ppf
    "Section 4.4 control: ccmalloc with null hints vs. system malloc \
     (whole program)";
  let one k =
    let rb = k.k_run ~measure_whole:true C.Base in
    let rn = k.k_run ~measure_whole:true C.Null_hint_control in
    let delta = 100. *. (C.normalized rn ~base:rb -. 1.) in
    Format.fprintf ppf
      "%-10s base %12d cycles   null-hint ccmalloc %12d cycles   -> %+.1f%% \
       (paper: +2%% to +6%%)@."
      k.k_name rb.C.snapshot.Memsim.Cost.s_total
      rn.C.snapshot.Memsim.Cost.s_total delta;
    J.Obj
      [
        ("name", J.String k.k_name);
        ("base_cycles", J.Int rb.C.snapshot.Memsim.Cost.s_total);
        ("null_hint_cycles", J.Int rn.C.snapshot.Memsim.Cost.s_total);
        ("overhead_pct", J.Float delta);
      ]
  in
  let rows = List.map one (olden_kernels ?seed scale) in
  Format.fprintf ppf "@.";
  J.Obj [ ("rows", J.List rows) ]

(* ------------------------------------------------------------------ *)
(* Figure 10                                                           *)
(* ------------------------------------------------------------------ *)

let fig10_params = function
  | Quick -> ([ 1 lsl 18; 1 lsl 19; 1 lsl 20 ], 30_000)
  | Paper ->
      ([ 1 lsl 18; 1 lsl 19; 1 lsl 20; 1 lsl 21; 1 lsl 22 ], 200_000)

let fig10 ?(scale = Quick) ?seed ppf =
  section ppf
    "Figure 10: predicted vs. measured C-tree speedup (model validation)";
  let sizes, searches = fig10_params scale in
  let pts = Tb.fig10 ?seed ~sizes ~searches () in
  Format.fprintf ppf "%-12s %12s %12s %8s@." "tree size" "predicted"
    "measured" "ratio";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-12d %12.2f %12.2f %8.2f@." p.Tb.tree_size
        p.Tb.predicted p.Tb.actual
        (p.Tb.actual /. p.Tb.predicted))
    pts;
  Format.fprintf ppf
    "(paper: both curves decline with tree size and differ by ~15%%; the \
     paper's model@. underestimates its measurement, ours slightly \
     overestimates -- see EXPERIMENTS.md)@.@.";
  J.Obj
    [
      ("searches", J.Int searches);
      ( "points",
        J.List
          (List.map
             (fun p ->
               J.Obj
                 [
                   ("tree_size", J.Int p.Tb.tree_size);
                   ("predicted", J.Float p.Tb.predicted);
                   ("measured", J.Float p.Tb.actual);
                 ])
             pts) );
    ]

let names = [ "fig5"; "fig6"; "table1"; "table2"; "fig7"; "control"; "fig10" ]

let run_named ?(scale = Quick) ?seed name ppf =
  match name with
  | "fig5" -> Some (fig5 ~scale ?seed ppf)
  | "fig6" -> Some (fig6 ~scale ?seed ppf)
  | "table1" -> Some (table1 ppf)
  | "table2" -> Some (table2 ~scale ?seed ppf)
  | "fig7" -> Some (fig7 ~scale ?seed ppf)
  | "control" -> Some (control ~scale ?seed ppf)
  | "fig10" -> Some (fig10 ~scale ?seed ppf)
  | _ -> None

let all ?(scale = Quick) ?seed ppf =
  J.Obj
    (List.map
       (fun n -> (n, Option.get (run_named ~scale ?seed n ppf)))
       names)
