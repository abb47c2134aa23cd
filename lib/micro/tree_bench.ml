module Machine = Memsim.Machine
module Config = Memsim.Config
module Bst = Structures.Bst
module Btree = Structures.Btree
module Rng = Workload.Rng

type variant = Random_tree | Dfs_tree | B_tree | C_tree

let variant_name = function
  | Random_tree -> "random-clustered binary tree"
  | Dfs_tree -> "depth-first clustered binary tree"
  | B_tree -> "in-core B-tree"
  | C_tree -> "transparent C-tree"

let all_variants = [ Random_tree; Dfs_tree; B_tree; C_tree ]

type point = { searches : int; avg_cycles : float }

type series = {
  variant : variant;
  points : point list;
  total_cycles : int;
  l2_miss_rate : float;
}

type searcher = { search : int -> bool }

let build_searcher m variant ~elem_bytes ~keys ~seed =
  (* binary-tree variants allocate through the malloc emulation, so naive
     layouts carry real header overhead, exactly like the paper's C trees *)
  let malloc () = Alloc.Malloc.allocator (Alloc.Malloc.create m) in
  match variant with
  | Random_tree ->
      let t =
        Bst.build m ~elem_bytes ~alloc:(malloc ())
          (Bst.Random (Rng.create seed)) ~keys
      in
      { search = (fun k -> Bst.search t k) }
  | Dfs_tree ->
      let t = Bst.build m ~elem_bytes ~alloc:(malloc ()) Bst.Depth_first ~keys in
      { search = (fun k -> Bst.search t k) }
  | B_tree ->
      let t = Btree.build m ~fill_factor:0.7 ~colored:true ~keys in
      { search = (fun k -> Btree.search t k) }
  | C_tree ->
      let t =
        Bst.build m ~elem_bytes ~alloc:(malloc ())
          (Bst.Random (Rng.create seed)) ~keys
      in
      let r =
        Ccsl.Ccmorph.morph m (Bst.desc ~elem_bytes) ~root:t.Bst.root
      in
      let t' =
        Bst.of_root m ~elem_bytes ~n:(Array.length keys) r.Ccsl.Ccmorph.new_root
      in
      { search = (fun k -> Bst.search t' k) }

let run_searches m s ~keys ~searches ~checkpoints ~seed =
  let rng = Rng.create (seed + 17) in
  let n = Array.length keys in
  let points = ref [] in
  let remaining = ref checkpoints in
  Machine.cold_start m;
  for i = 1 to searches do
    let key = keys.(Rng.int rng n) in
    ignore (s.search key);
    match !remaining with
    | c :: rest when c = i ->
        points :=
          { searches = i; avg_cycles = float_of_int (Machine.cycles m) /. float_of_int i }
          :: !points;
        remaining := rest
    | _ -> ()
  done;
  let l2 =
    Memsim.Cache.miss_rate
      (Memsim.Cache.stats (Memsim.Hierarchy.l2 (Machine.hierarchy m)))
  in
  (List.rev !points, Machine.cycles m, l2)

let validate_checkpoints checkpoints searches =
  let rec go = function
    | [] -> ()
    | [ c ] -> if c > searches then invalid_arg "Tree_bench: checkpoint > searches"
    | a :: (b :: _ as rest) ->
        if a >= b then invalid_arg "Tree_bench: checkpoints must increase";
        go rest
  in
  go checkpoints

let fig5 ?(elem_bytes = Bst.default_elem_bytes) ?(seed = 2023) ~keys ~searches
    ~checkpoints () =
  validate_checkpoints checkpoints searches;
  let key_array = Array.init keys (fun i -> i) in
  List.map
    (fun variant ->
      let m = Machine.create (Config.ultrasparc_e5000 ~tlb:true ()) in
      let s = build_searcher m variant ~elem_bytes ~keys:key_array ~seed in
      let points, total, l2 =
        run_searches m s ~keys:key_array ~searches ~checkpoints ~seed
      in
      { variant; points; total_cycles = total; l2_miss_rate = l2 })
    all_variants

type fig10_point = { tree_size : int; predicted : float; actual : float }

let measure_steady m s ~keys ~searches ~seed =
  let rng = Rng.create (seed + 31) in
  let n = Array.length keys in
  (* warm up to steady state, then measure *)
  Machine.cold_start m;
  for _ = 1 to searches / 4 do
    ignore (s.search keys.(Rng.int rng n))
  done;
  Machine.reset_measurement m;
  for _ = 1 to searches do
    ignore (s.search keys.(Rng.int rng n))
  done;
  Machine.cycles m

let fig10 ?(elem_bytes = Bst.default_elem_bytes) ?(seed = 2023) ~sizes
    ~searches () =
  List.map
    (fun tree_size ->
      let key_array = Array.init tree_size (fun i -> i) in
      let naive =
        let m = Machine.create (Config.ultrasparc_e5000 ~tlb:true ()) in
        let s = build_searcher m Random_tree ~elem_bytes ~keys:key_array ~seed in
        measure_steady m s ~keys:key_array ~searches ~seed
      in
      let ctree =
        let m = Machine.create (Config.ultrasparc_e5000 ~tlb:true ()) in
        let s = build_searcher m C_tree ~elem_bytes ~keys:key_array ~seed in
        measure_steady m s ~keys:key_array ~searches ~seed
      in
      let cfg = Config.ultrasparc_e5000 () in
      let l2 = cfg.Config.l2 in
      let predicted =
        Ccsl.Model.Ctree.predicted_speedup ~lat:cfg.Config.latencies
          ~n:tree_size ~sets:l2.Memsim.Cache_config.sets
          ~assoc:l2.Memsim.Cache_config.assoc
          ~block_elems:(l2.Memsim.Cache_config.block_bytes / elem_bytes)
          ~color_frac:0.5 ~ml1_cc:1.
      in
      {
        tree_size;
        predicted;
        actual = float_of_int naive /. float_of_int ctree;
      })
    sizes
