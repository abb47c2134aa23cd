module Machine = Memsim.Machine
module Config = Memsim.Config
module Cache = Memsim.Cache
module Hierarchy = Memsim.Hierarchy
module Ccmorph = Ccsl.Ccmorph
module Bst = Structures.Bst
module Rng = Workload.Rng
module C = Olden.Common
module J = Obs.Json

type level = {
  lv_accesses : int;
  lv_misses : int;
  lv_miss_rate : float;
}

type row = {
  row_engine : string;
  row_cycles : int;
  row_checksum : int;
  row_l1 : level;
  row_l2 : level;
  row_tlb : level option;
  row_blocks_used : int;
  row_hot_blocks : int;
  row_pages_used : int;
}

type report = {
  bench : string;
  scale : Experiments.scale;
  rows : row list;
}

let names = [ "micro"; "health"; "treeadd" ]

(* Explicit [Engine] schemes, not the [Subtree]/[Depth_first] aliases:
   kernels that hard-parameterize their morph (treeadd rewrites the
   default [Subtree] to depth-first clustering, per the paper's own
   Section 2.1 guidance) honor an explicit engine as given, so every
   row measures the genuine engine.  The alias ≡ engine guarantee is
   covered by the differential tests in test/suite_layout.ml. *)
let engine_schemes =
  List.map
    (fun e -> (e.Layout.Engine.name, Ccmorph.Engine e))
    Layout.Engine.builtins

let level_of (s : Cache.stats) =
  {
    lv_accesses = Cache.accesses s;
    lv_misses = Cache.misses s;
    lv_miss_rate = Cache.miss_rate s;
  }

let tlb_level (s : Memsim.Tlb.stats) =
  {
    lv_accesses = s.Memsim.Tlb.t_hits + s.Memsim.Tlb.t_misses;
    lv_misses = s.Memsim.Tlb.t_misses;
    lv_miss_rate = Memsim.Tlb.stats_miss_rate s;
  }

(* Capture the last morph this machine performs, for the plan-footprint
   columns (blocks/hot/pages) that olden kernels do not surface. *)
let with_morph_capture m f =
  let last = ref None in
  let id =
    Ccmorph.add_observer (fun o ->
        if o.Ccmorph.obs_machine == m then last := Some o.Ccmorph.obs_result)
  in
  Fun.protect
    ~finally:(fun () -> Ccmorph.remove_observer id)
    (fun () ->
      let x = f () in
      (x, !last))

(* --- the tree microbenchmark, multilevel edition --- *)

(* The Quick tree must outgrow the UltraSPARC TLB reach (64 entries x
   8 KB = 512 KB) or every engine trivially fits: 2^15-1 nodes x 20 B
   = 640 KB. *)
let micro_dims = function
  | Experiments.Quick -> (15, 2_000, 6_000)
  | Experiments.Paper -> (17, 8_000, 20_000)

(* Skewed search mix: 90% of searches target a hot 1/16th of the key
   space, so the profile the weighted engine consumes carries signal. *)
let skewed_key rng n =
  if Rng.int rng 10 < 9 then Rng.int rng (max 1 (n / 16)) else Rng.int rng n

let micro_row ~scale ~seed (name, scheme) =
  let levels, profile_n, measure_n = micro_dims scale in
  let n = (1 lsl levels) - 1 in
  let elem_bytes = Bst.default_elem_bytes in
  let m = Machine.create (Config.ultrasparc_e5000 ~tlb:true ()) in
  let keys = Array.init n (fun i -> i) in
  let t =
    Bst.build m ~elem_bytes
      ~alloc:(Alloc.Malloc.allocator (Alloc.Malloc.create m))
      (Bst.Random (Rng.create seed)) ~keys
  in
  (* profile phase: count per-word accesses over a representative mix;
     the counts become the weighted engine's per-node weights *)
  let counts = Obs.Profile.Counts.create () in
  let sub = Obs.Profile.Counts.attach counts m in
  let prof_rng = Rng.create (seed + 7) in
  for _ = 1 to profile_n do
    ignore (Bst.search t keys.(skewed_key prof_rng n))
  done;
  Machine.unsubscribe m sub;
  let params =
    {
      Ccmorph.default_params with
      Ccmorph.cluster = scheme;
      weights = Some (Obs.Profile.Counts.weight_fn counts ~elem_bytes);
    }
  in
  let r = Ccmorph.morph ~params m (Bst.desc ~elem_bytes) ~root:t.Bst.root in
  let t = Bst.of_root m ~elem_bytes ~n r.Ccmorph.new_root in
  (* measured phase: cold caches and TLB, zeroed counters *)
  Machine.cold_start m;
  let rng = Rng.create (seed + 17) in
  let found = ref 0 in
  for _ = 1 to measure_n do
    if Bst.search t keys.(skewed_key rng n) then incr found
  done;
  let st = Hierarchy.stats (Machine.hierarchy m) in
  {
    row_engine = name;
    row_cycles = Machine.cycles m;
    row_checksum = !found;
    row_l1 = level_of st.Hierarchy.h_l1;
    row_l2 = level_of st.Hierarchy.h_l2;
    row_tlb = Option.map tlb_level st.Hierarchy.h_tlb;
    row_blocks_used = r.Ccmorph.blocks_used;
    row_hot_blocks = r.Ccmorph.hot_blocks;
    row_pages_used = r.Ccmorph.pages_used;
  }

(* --- olden workloads with the engine swapped into morph_params --- *)

let olden_row (k : Experiments.kernel) (name, scheme) =
  let config = Config.rsim_table1 ~tlb:true () in
  let ctx = C.make_ctx ~config C.Ccmorph_cluster_color in
  let ctx =
    {
      ctx with
      C.morph_params =
        Some { Ccmorph.default_params with Ccmorph.cluster = scheme };
    }
  in
  let res, morph =
    with_morph_capture ctx.C.machine (fun () ->
        k.k_run ~measure_whole:true ~ctx C.Ccmorph_cluster_color)
  in
  let st = Hierarchy.stats (Machine.hierarchy ctx.C.machine) in
  let blocks, hot, pages =
    match morph with
    | Some r -> (r.Ccmorph.blocks_used, r.Ccmorph.hot_blocks, r.Ccmorph.pages_used)
    | None -> (0, 0, 0)
  in
  {
    row_engine = name;
    row_cycles = res.C.snapshot.Memsim.Cost.s_total;
    row_checksum = res.C.checksum;
    row_l1 = level_of st.Hierarchy.h_l1;
    row_l2 = level_of st.Hierarchy.h_l2;
    row_tlb = Option.map tlb_level st.Hierarchy.h_tlb;
    row_blocks_used = blocks;
    row_hot_blocks = hot;
    row_pages_used = pages;
  }

(* One engine's row for [bench]: an independent job for {!Parallel.map}. *)
let row_of_bench ~scale ~seed bench =
  let seed = Option.value ~default:2023 seed in
  match bench with
  | "micro" -> Some (micro_row ~scale ~seed)
  | _ when List.mem bench names ->
      Option.map olden_row (Experiments.olden_kernel ~seed scale bench)
  | _ -> None

let run ?(scale = Experiments.Quick) ?seed ?(parallel = false) bench =
  Option.map
    (fun row ->
      { bench; scale; rows = Parallel.map ~parallel row engine_schemes })
    (row_of_bench ~scale ~seed bench)

let pp ppf r =
  Format.fprintf ppf "layout shootout: %s (%s scale)@." r.bench
    (Experiments.scale_name r.scale);
  Format.fprintf ppf "  %-12s %12s %10s %10s %10s %7s %5s %6s@." "engine"
    "cycles" "L1-miss%" "L2-miss%" "TLB-miss" "blocks" "hot" "pages";
  List.iter
    (fun row ->
      Format.fprintf ppf "  %-12s %12d %9.2f%% %9.2f%% %10s %7d %5d %6d@."
        row.row_engine row.row_cycles
        (100. *. row.row_l1.lv_miss_rate)
        (100. *. row.row_l2.lv_miss_rate)
        (match row.row_tlb with
        | Some t -> string_of_int t.lv_misses
        | None -> "-")
        row.row_blocks_used row.row_hot_blocks row.row_pages_used)
    r.rows;
  match r.rows with
  | best :: _ ->
      let best =
        List.fold_left
          (fun a b -> if b.row_cycles < a.row_cycles then b else a)
          best r.rows
      in
      Format.fprintf ppf "  fastest: %s@." best.row_engine
  | [] -> ()

(* --- JSON export --- *)

let level_json l =
  J.Obj
    [
      ("accesses", J.Int l.lv_accesses);
      ("misses", J.Int l.lv_misses);
      ("miss_rate", J.Float l.lv_miss_rate);
    ]

let row_json r =
  J.Obj
    ([
       ("engine", J.String r.row_engine);
       ("cycles", J.Int r.row_cycles);
       ("checksum", J.Int r.row_checksum);
       ("l1", level_json r.row_l1);
       ("l2", level_json r.row_l2);
     ]
    @ (match r.row_tlb with
      | Some t -> [ ("tlb", level_json t) ]
      | None -> [])
    @ [
        ("blocks_used", J.Int r.row_blocks_used);
        ("hot_blocks", J.Int r.row_hot_blocks);
        ("pages_used", J.Int r.row_pages_used);
      ])

let to_json r =
  J.Obj
    [
      ("bench", J.String r.bench);
      ("engines", J.List (List.map (fun (n, _) -> J.String n) engine_schemes));
      ("rows", J.List (List.map row_json r.rows));
    ]
