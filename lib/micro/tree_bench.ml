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

let morph ?params (t : Bst.t) =
  let elem_bytes = t.Bst.elem_bytes in
  let r =
    Ccsl.Ccmorph.morph ?params t.Bst.m (Bst.desc ~elem_bytes) ~root:t.Bst.root
  in
  (Bst.of_root t.Bst.m ~elem_bytes ~n:t.Bst.n r.Ccsl.Ccmorph.new_root, r)

let build ?alloc ?morph:params m layout ~keys =
  let t = Bst.build m ?alloc layout ~keys in
  match params with None -> t | Some params -> fst (morph ~params t)

let measure m ~searches search =
  Machine.cold_start m;
  for i = 1 to searches / 4 do
    search i
  done;
  Machine.reset_measurement m;
  for i = 1 to searches do
    search i
  done;
  Machine.cycles m

type searcher = { search : int -> bool }

let build_searcher m variant ~keys ~seed =
  (* binary-tree variants allocate through the malloc emulation, so naive
     layouts carry real header overhead, exactly like the paper's C trees *)
  let bst ?morph layout =
    let alloc = Alloc.Malloc.allocator (Alloc.Malloc.create m) in
    let t = build ~alloc ?morph m layout ~keys in
    { search = (fun k -> Bst.search t k) }
  in
  match variant with
  | Random_tree -> bst (Bst.Random (Rng.create seed))
  | Dfs_tree -> bst Bst.Depth_first
  | B_tree ->
      let t = Btree.build m ~fill_factor:0.7 ~colored:true ~keys in
      { search = (fun k -> Btree.search t k) }
  | C_tree ->
      bst ~morph:Ccsl.Ccmorph.default_params (Bst.Random (Rng.create seed))

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

let fig5 ?(seed = 2023) ~keys ~searches ~checkpoints variant =
  validate_checkpoints checkpoints searches;
  let key_array = Array.init keys (fun i -> i) in
  let m = Machine.create (Config.ultrasparc_e5000 ~tlb:true ()) in
  let s = build_searcher m variant ~keys:key_array ~seed in
  let points, total, l2 =
    run_searches m s ~keys:key_array ~searches ~checkpoints ~seed
  in
  { variant; points; total_cycles = total; l2_miss_rate = l2 }

type fig10_point = { tree_size : int; predicted : float; actual : float }

let measure_steady m s ~keys ~searches ~seed =
  let rng = Rng.create (seed + 31) in
  let n = Array.length keys in
  (* warm up to steady state, then measure *)
  measure m ~searches (fun _ -> ignore (s.search keys.(Rng.int rng n)))

let fig10 ?(seed = 2023) ~searches tree_size =
  let key_array = Array.init tree_size (fun i -> i) in
  let cycles variant =
    let m = Machine.create (Config.ultrasparc_e5000 ~tlb:true ()) in
    let s = build_searcher m variant ~keys:key_array ~seed in
    measure_steady m s ~keys:key_array ~searches ~seed
  in
  let naive = cycles Random_tree in
  let ctree = cycles C_tree in
  let cfg = Config.ultrasparc_e5000 () in
  let l2 = cfg.Config.l2 in
  let predicted =
    Ccsl.Model.Ctree.predicted_speedup ~lat:cfg.Config.latencies
      ~n:tree_size ~sets:l2.Memsim.Cache_config.sets
      ~assoc:l2.Memsim.Cache_config.assoc
      ~block_elems:(l2.Memsim.Cache_config.block_bytes / Bst.default_elem_bytes)
      ~color_frac:0.5 ~ml1_cc:1.
  in
  { tree_size; predicted; actual = float_of_int naive /. float_of_int ctree }
