(* Head-to-head tree shoot-out: the paper's Figure 5 in miniature.

   Compares a randomly laid out binary tree, a depth-first laid out one,
   a colored in-core B-tree and a transparent C-tree under repeated
   random searches, printing the running average as caches warm.

     dune exec examples/treesearch.exe *)

let () =
  let keys = (1 lsl 17) - 1 in
  Format.printf
    "Searching a %d-key tree on the simulated E5000 (cycles/search)...@.@."
    keys;
  let series =
    List.map
      (Micro.Tree_bench.fig5 ~keys ~searches:20_000
         ~checkpoints:[ 10; 100; 1_000; 20_000 ])
      Micro.Tree_bench.all_variants
  in
  Format.printf "%-38s %8s %8s %8s %8s@." "" "10" "100" "1k" "20k";
  List.iter
    (fun s ->
      Format.printf "%-38s" (Micro.Tree_bench.variant_name s.Micro.Tree_bench.variant);
      List.iter
        (fun p -> Format.printf " %8.0f" p.Micro.Tree_bench.avg_cycles)
        s.Micro.Tree_bench.points;
      Format.printf "@.")
    series;
  let final v =
    let s = List.find (fun s -> s.Micro.Tree_bench.variant = v) series in
    (List.nth s.Micro.Tree_bench.points 3).Micro.Tree_bench.avg_cycles
  in
  Format.printf
    "@.The C-tree ends up %.1fx faster than the random tree and %.2fx \
     faster than the B-tree.@."
    (final Micro.Tree_bench.Random_tree /. final Micro.Tree_bench.C_tree)
    (final Micro.Tree_bench.B_tree /. final Micro.Tree_bench.C_tree)
