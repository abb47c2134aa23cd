module Machine = Memsim.Machine
module Config = Memsim.Config
module Bst = Structures.Bst
module Rng = Workload.Rng
module Ccmorph = Ccsl.Ccmorph
module Tb = Micro.Tree_bench
module J = Obs.Json

let section = Report.section

(* Every study derives its random streams from [?seed]: [None] keeps the
   repository's historical constants (reference output stays bit-exact),
   [Some s] offsets each stream from [s] so reruns are independent. *)
let sd seed default offset =
  match seed with None -> default | Some s -> s + offset

let e5000 () = Config.ultrasparc_e5000 ~tlb:true ()

(* The historical random tree layout, from build seed 17 by default. *)
let random_layout seed = Bst.Random (Rng.create (sd seed 17 0))

(* One tree-search arm: build a tree in [layout] on a fresh [config]
   machine, morph it with [morph] (or leave it as built), and measure
   steady-state searches whose keys come from [next_key]; cycles per
   search. *)
let measure_tree ?morph config layout ~n ~searches ~next_key =
  let m = Machine.create config in
  let t = Tb.build ?morph m layout ~keys:(Array.init n (fun i -> i)) in
  let search i = ignore (Bst.search t (next_key i)) in
  let cycles = Tb.measure m ~searches search in
  float_of_int cycles /. float_of_int searches

let uniform_keys n seed =
  let rng = Rng.create seed in
  fun _ -> Rng.int rng n

(* ------------------------------------------------------------------ *)

(* Sweep the [Color_const] hot-region fraction (uncolored, 1/4, 1/2,
   3/4) for C-tree searches.  The paper fixes 1/2 without comment; this
   shows the trade-off (bigger hot region pins more of the tree but
   shrinks the cold region's effective cache). *)
let color_frac ?seed ppf =
  section ppf "Ablation: hot-region size (the paper's Color_const = 1/2)";
  let n = 1 lsl 19 in
  let searches = 20_000 in
  let run label params =
    let c =
      measure_tree ?morph:params (e5000 ()) (random_layout seed) ~n ~searches
        ~next_key:(uniform_keys n (sd seed 5 1))
    in
    Format.fprintf ppf "  %-28s %8.1f cycles/search@." label c;
    J.Obj [ ("label", J.String label); ("cycles_per_search", J.Float c) ]
  in
  let rows =
    run "uncolored (clustering only)"
      (Some { Ccmorph.default_params with Ccmorph.color = false })
    :: List.map
         (fun frac ->
           run
             (Printf.sprintf "colored, frac = %.2f" frac)
             (Some { Ccmorph.default_params with Ccmorph.color_frac = frac }))
         [ 0.25; 0.5; 0.75 ]
  in
  Format.fprintf ppf "@.";
  J.Obj [ ("rows", J.List rows) ]

(* Section 2.1's claim, measured both ways: subtree clustering wins for
   random searches, depth-first clustering wins for full depth-first
   walks. *)
let cluster_scheme ?seed ppf =
  section ppf
    "Ablation: clustering scheme vs. access pattern (Section 2.1 both ways)";
  let n = (1 lsl 17) - 1 in
  (* (a) random searches *)
  let search_cost scheme =
    measure_tree
      ~morph:
        { Ccmorph.default_params with Ccmorph.cluster = scheme; color = false }
      (e5000 ()) (random_layout seed) ~n ~searches:20_000
      ~next_key:(uniform_keys n (sd seed 5 1))
  in
  let search_sub = search_cost Ccmorph.Subtree in
  let search_dfs = search_cost Ccmorph.Depth_first in
  Format.fprintf ppf "  random searches:   subtree %8.1f   depth-first %8.1f \
                      cycles/search@."
    search_sub search_dfs;
  (* (b) full depth-first walks -- with k = 3 and cluster merging the two
     schemes both pack walk-consecutive nodes, so subtree clustering must
     merely not lose here while winning the searches above *)
  let walk_cost scheme =
    let m = Machine.create (e5000 ()) in
    let t =
      Tb.build
        ~morph:
          { Ccmorph.default_params with Ccmorph.cluster = scheme; color = false }
        m (random_layout seed) ~keys:(Array.init n (fun i -> i))
    in
    let root = t.Bst.root in
    Machine.reset_measurement m;
    let rec walk node =
      if not (Memsim.Addr.is_null node) then begin
        let l = Machine.load_ptr m (node + 4) in
        let r = Machine.load_ptr m (node + 8) in
        walk l;
        walk r
      end
    in
    for _ = 1 to 4 do
      walk root
    done;
    float_of_int (Machine.cycles m) /. 4.
  in
  let walk_sub = walk_cost Ccmorph.Subtree in
  let walk_dfs = walk_cost Ccmorph.Depth_first in
  Format.fprintf ppf "  full DFS walks:    subtree %8.0f   depth-first %8.0f \
                      cycles/walk@."
    walk_sub walk_dfs;
  Format.fprintf ppf
    "  (subtree clustering should win the searches, depth-first the walks)@.@.";
  J.Obj
    [
      ( "random_searches",
        J.Obj
          [ ("subtree", J.Float search_sub); ("depth_first", J.Float search_dfs) ]
      );
      ( "dfs_walks",
        J.Obj
          [ ("subtree", J.Float walk_sub); ("depth_first", J.Float walk_dfs) ]
      );
    ]

(* Coloring benefit as a function of access skew: uniform vs. Zipf
   (theta 0.8 and 1.2) searches on clustered trees with and without
   coloring. *)
let zipf_skew ?seed ppf =
  section ppf "Ablation: coloring benefit vs. access skew";
  let n = 1 lsl 19 in
  let searches = 20_000 in
  (* hot ranks are scattered over the key space deterministically *)
  let scatter = Rng.permutation (Rng.create (sd seed 99 2)) n in
  let next_key_of = function
    | None -> uniform_keys n (sd seed 5 1)
    | Some theta ->
        let z = Workload.Zipf.create ~n ~theta in
        let rng = Rng.create (sd seed 5 1) in
        fun _ -> scatter.(Workload.Zipf.sample z rng)
  in
  let rows =
    List.map
      (fun (label, theta) ->
        let cost colored =
          measure_tree
            ~morph:{ Ccmorph.default_params with Ccmorph.color = colored }
            (e5000 ()) (random_layout seed) ~n ~searches
            ~next_key:(next_key_of theta)
        in
        let un = cost false and co = cost true in
        let gain = 100. *. (1. -. (co /. un)) in
        Format.fprintf ppf
          "  %-18s uncolored %8.1f   colored %8.1f   gain %5.1f%%@." label un
          co gain;
        J.Obj
          [
            ("workload", J.String label);
            ("uncolored", J.Float un);
            ("colored", J.Float co);
            ("gain_pct", J.Float gain);
          ])
      [ ("uniform", None); ("zipf 0.8", Some 0.8); ("zipf 1.2", Some 1.2) ]
  in
  Format.fprintf ppf "@.";
  J.Obj [ ("rows", J.List rows) ]

(* [ccmalloc] with perfect hints (list predecessor), random hints, and
   null hints on a list-churn workload: the gains come from the hints,
   not the allocator. *)
let hint_quality ?seed ppf =
  section ppf "Ablation: ccmalloc hint quality on a list-churn workload";
  let lists = 512 and cells = 80 and rounds = 60 in
  let run hint_mode =
    let m = Machine.create (e5000 ()) in
    let cc = Ccsl.Ccmalloc.create ~strategy:Ccsl.Ccmalloc.New_block m in
    let rng = Rng.create (sd seed 31 0) in
    let live = ref [] in
    let alloc ~prev =
      let hint =
        match hint_mode with
        | `Predecessor -> prev
        | `Null -> Memsim.Addr.null
        | `Random -> (
            match !live with
            | [] -> Memsim.Addr.null
            | l -> List.nth l (Rng.int rng (List.length l)))
      in
      let a =
        if Memsim.Addr.is_null hint then Ccsl.Ccmalloc.alloc cc 12
        else Ccsl.Ccmalloc.alloc cc ~hint 12
      in
      live := a :: !live;
      if List.length !live > 512 then
        live := List.filteri (fun i _ -> i < 256) !live;
      a
    in
    (* build singly-linked lists with the cell allocations of different
       lists interleaved (as concurrent structures grow in real programs) *)
    let heads = Array.make lists Memsim.Addr.null in
    for _ = 1 to cells do
      for l = 0 to lists - 1 do
        let c = alloc ~prev:heads.(l) in
        Machine.store32 m c heads.(l);
        heads.(l) <- c
      done
    done;
    (* steady-state churn: every round each list is traversed, loses its
       oldest cell (freed back to the allocator) and gains a fresh one
       hinted at its head -- the health benchmark's access pattern.
       Under null hints the freed slots are recycled globally, scattering
       every list a little more each round; predecessor hints keep
       replacements near their list. *)
    Machine.reset_measurement m;
    for _ = 1 to rounds do
      Array.iteri
        (fun l head ->
          (* traverse, remembering the last two cells *)
          let rec go prev2 prev c =
            if Memsim.Addr.is_null c then (prev2, prev)
            else go prev c (Machine.load_ptr m c)
          in
          let second_last, last = go Memsim.Addr.null head heads.(l) in
          ignore head;
          (* unlink and free the tail *)
          (match (Memsim.Addr.is_null second_last, Memsim.Addr.is_null last) with
          | false, false ->
              Machine.store32 m second_last 0;
              Ccsl.Ccmalloc.free cc last
          | _ -> ());
          (* push a fresh head, hinted at the current head *)
          let c = alloc ~prev:heads.(l) in
          Machine.store32 m c heads.(l);
          heads.(l) <- c)
        heads
    done;
    Machine.cycles m
  in
  let p = run `Predecessor and r = run `Random and nl = run `Null in
  Format.fprintf ppf
    "  predecessor hints %9d cycles@.  random hints      %9d cycles@.\
    \  null hints        %9d cycles@."
    p r nl;
  Format.fprintf ppf
    "  (good hints keep each list's replacement cells near the list; null \
     hints recycle@.   freed slots globally and scatter the lists a little \
     more every round)@.@.";
  J.Obj
    [
      ("predecessor_cycles", J.Int p);
      ("random_cycles", J.Int r);
      ("null_cycles", J.Int nl);
    ]

(* Software-prefetched treeadd with 1..16 MSHRs: how much overlap the
   memory system must support before greedy prefetching pays. *)
let mshr_sweep ?seed ppf =
  ignore seed;
  section ppf "Ablation: MSHR count vs. greedy software prefetching (treeadd)";
  let treeadd = Experiments.treeadd { Olden.Treeadd.levels = 15; passes = 1 } in
  let rows =
    List.map
      (fun mshrs ->
        let config = Config.rsim_table1 ~mshrs () in
        let r =
          treeadd.Experiments.k_run
            (Olden.Common.make_ctx ~config Olden.Common.Sw_prefetch)
        in
        Format.fprintf ppf "  mshrs = %2d   %9d cycles@." mshrs
          r.Olden.Common.snapshot.Memsim.Cost.s_total;
        J.Obj
          [
            ("mshrs", J.Int mshrs);
            ("cycles", J.Int r.Olden.Common.snapshot.Memsim.Cost.s_total);
          ])
      [ 1; 2; 4; 8; 16 ]
  in
  Format.fprintf ppf "@.";
  J.Obj [ ("rows", J.List rows) ]

(* [ccmorph]'s depth-first cold-block emission on vs. off, with the TLB
   enabled: the page-locality share of the C-tree win.  "Off" is the
   subtree engine with its cold order overridden to [Plan_order]. *)
let page_aware ?seed ppf =
  section ppf "Ablation: ccmorph's page-aware cold-block emission (TLB on)";
  let n = 1 lsl 19 in
  let run cluster =
    measure_tree
      ~morph:{ Ccmorph.default_params with Ccmorph.cluster }
      (e5000 ()) (random_layout seed) ~n ~searches:20_000
      ~next_key:(uniform_keys n (sd seed 5 1))
  in
  let bf =
    run
      (Ccmorph.Engine
         { Layout.Engine.subtree with cold_order = Layout.Engine.Plan_order })
  and df = run Ccmorph.Subtree in
  Format.fprintf ppf
    "  breadth-first cold order %8.1f cycles/search@.\
    \  depth-first (page-aware) %8.1f cycles/search@.@."
    bf df;
  J.Obj [ ("breadth_first", J.Float bf); ("depth_first", J.Float df) ]

(* Two trees searched alternately: naive layouts, both colored into the
   same hot region (they fight), and colored into disjoint
   regions — the paper's future-work extension. *)
let interference ?seed ppf =
  section ppf
    "Extension: two structures sharing the cache (the paper's future work)";
  let n = 1 lsl 17 in
  let searches = 20_000 in
  let run label p1 p2 =
    let m = Machine.create (e5000 ()) in
    let keys = Array.init n (fun i -> i) in
    let build bs = Tb.build m (Bst.Random (Rng.create bs)) ~keys in
    let t1 = build (sd seed 1 0) and t2 = build (sd seed 2 1) in
    let morph t p =
      match p with None -> t | Some params -> fst (Tb.morph ~params t)
    in
    let t1 = morph t1 p1 and t2 = morph t2 p2 in
    let rng = Rng.create (sd seed 5 2) in
    let cycles =
      Tb.measure m ~searches (fun _ ->
          ignore (Bst.search t1 (Rng.int rng n));
          ignore (Bst.search t2 (Rng.int rng n)))
    in
    let c = float_of_int cycles /. float_of_int (2 * searches) in
    Format.fprintf ppf "  %-34s %8.1f cycles/search@." label c;
    J.Obj [ ("label", J.String label); ("cycles_per_search", J.Float c) ]
  in
  let quarter first_set =
    Some
      {
        Ccmorph.default_params with
        Ccmorph.color_frac = 0.25;
        color_first_set = first_set;
      }
  in
  let sets = 16384 in
  let rows =
    [
      run "both naive" None None;
      run "both colored, same hot region" (quarter 0) (quarter 0);
      run "colored into disjoint regions" (quarter 0) (quarter (sets / 4));
    ]
  in
  Format.fprintf ppf
    "  (disjoint regions should win: each tree's hot set survives the \
     other's traffic)@.@.";
  J.Obj [ ("rows", J.List rows) ]

(* The Figure 5 caveat, tested: "we expect B-trees to perform better
   than transparent C-trees when trees change due to insertions and
   deletions".  Mixed insert/search workloads against a periodically
   re-morphed C-tree and a self-balancing B-tree, locating the
   crossover. *)
let dynamic_updates ?seed ppf =
  section ppf
    "Extension: C-tree vs. B-tree under insertions (the paper's Figure 5 \
     caveat)";
  Format.fprintf ppf
    "  The paper: \"we expect B-trees to perform better than transparent \
     C-trees when@.   trees change due to insertions and deletions\".  \
     Mixed workloads, 2^16 keys,@.   40k operations; the C-tree is \
     re-morphed every 8192 operations.@.@.";
  let n = 1 lsl 16 in
  let ops = 40_000 in
  let keys = Array.init n (fun i -> i * 2) in
  let run_ctree insert_frac =
    let m = Machine.create (e5000 ()) in
    let t =
      ref
        (Tb.build ~morph:Ccmorph.default_params m
           (Bst.Random (Rng.create (sd seed 3 0))) ~keys)
    in
    let rng = Rng.create (sd seed 4 1) in
    Machine.reset_measurement m;
    for i = 1 to ops do
      if Rng.float rng < insert_frac then
        ignore (Bst.insert !t ((2 * Rng.int rng (4 * n)) + 1))
      else ignore (Bst.search !t (2 * Rng.int rng n));
      if i mod 8192 = 0 && insert_frac > 0. then t := fst (Tb.morph !t)
    done;
    float_of_int (Machine.cycles m) /. float_of_int ops
  in
  let run_btree insert_frac =
    let m = Machine.create (e5000 ()) in
    let t = ref (Structures.Btree.build m ~colored:true ~keys) in
    let rng = Rng.create (sd seed 4 1) in
    Machine.reset_measurement m;
    for _ = 1 to ops do
      if Rng.float rng < insert_frac then
        t := Structures.Btree.insert !t ((2 * Rng.int rng (4 * n)) + 1)
      else ignore (Structures.Btree.search !t (2 * Rng.int rng n))
    done;
    float_of_int (Machine.cycles m) /. float_of_int ops
  in
  Format.fprintf ppf "  %-14s %12s %12s %10s@." "insert share" "C-tree"
    "B-tree" "winner";
  let rows =
    List.map
      (fun frac ->
        let c = run_ctree frac and b = run_btree frac in
        Format.fprintf ppf "  %-14s %12.1f %12.1f %10s@."
          (Printf.sprintf "%g%%" (100. *. frac))
          c b
          (if c < b then "C-tree" else "B-tree");
        J.Obj
          [
            ("insert_frac", J.Float frac);
            ("ctree", J.Float c);
            ("btree", J.Float b);
          ])
      [ 0.0; 0.005; 0.02; 0.1; 0.3 ]
  in
  Format.fprintf ppf "@.";
  J.Obj [ ("rows", J.List rows) ]

(* Subscribe direct-mapped caches of L2 capacities from 128 KB to
   4 MB to one steady-state search stream per layout while it runs and
   report their miss rates: the measured counterpart of the model's
   logarithmic [R_s] term.  [trace_events] is the naive stream's
   length. *)
let miss_curves ?seed ppf =
  section ppf
    "Extension: measured amortized miss rate vs. cache size (live caches)";
  Format.fprintf ppf
    "  The Section 5 model's R_s = log2(Color_const * c * k * a + 1) says the \
     miss@.   rate falls logarithmically with cache size; caches of each L2 \
     capacity,@.   subscribed to one search stream as it runs, measure \
     exactly that.@.@.";
  let n = 1 lsl 18 in
  let capacities = [ 131072; 262144; 524288; 1048576; 2097152; 4194304 ] in
  (* One steady-state search stream per layout, observed while it runs
     by a direct-mapped 64 B cache of each capacity: the stream's length
     and each cache's miss rate. *)
  let measure params =
    let m = Machine.create (Config.ultrasparc_e5000 ()) in
    let t =
      Tb.build ?morph:params m (random_layout seed)
        ~keys:(Array.init n (fun i -> i))
    in
    let rng = Rng.create (sd seed 5 1) in
    (* warm up unobserved, then observe the steady state *)
    for _ = 1 to 4000 do
      ignore (Bst.search t (Rng.int rng n))
    done;
    let caches =
      List.map
        (fun capacity_bytes ->
          Memsim.Cache.create
            (Memsim.Cache_config.of_capacity ~name:"curve" ~capacity_bytes
               ~assoc:1 ~block_bytes:64 ()))
        capacities
    in
    let events = ref 0 in
    let sub =
      Machine.subscribe m (fun write a ->
          incr events;
          List.iter (fun c -> ignore (Memsim.Cache.access c ~write a)) caches)
    in
    for _ = 1 to 4000 do
      ignore (Bst.search t (Rng.int rng n))
    done;
    Machine.unsubscribe m sub;
    ( !events,
      List.map (fun c -> Memsim.Cache.miss_rate (Memsim.Cache.stats c)) caches
    )
  in
  let events, cn = measure None in
  let _, cc = measure (Some Ccmorph.default_params) in
  Format.fprintf ppf "  %-12s %12s %12s@." "L2 capacity" "naive" "C-tree";
  let rows =
    List.map2
      (fun cap (mn, mc) ->
        Format.fprintf ppf "  %-12s %12.4f %12.4f@."
          (Printf.sprintf "%d KB" (cap / 1024))
          mn mc;
        J.Obj
          [
            ("capacity_bytes", J.Int cap);
            ("naive", J.Float mn);
            ("ctree", J.Float mc);
          ])
      capacities (List.combine cn cc)
  in
  Format.fprintf ppf
    "  (%d-event streams.  The C-tree's curve sits far below the naive one; \
     it flattens@.   past 1 MB because its coloring was computed for the 1 MB \
     E5000 L2 -- placement is@.   tuned to a cache, exactly as the model's \
     R_s(c) says)@.@."
    events;
  J.Obj [ ("trace_events", J.Int events); ("rows", J.List rows) ]

(* Coloring gain at L2 associativity 1..8 (same capacity): hardware
   associativity and software coloring attack the same conflict
   misses. *)
let associativity ?seed ppf =
  section ppf
    "Ablation: coloring vs. cache associativity (1 MB L2, same capacity)";
  Format.fprintf ppf
    "  Coloring exists to prevent conflict misses in low-associativity \
     caches;@.   associativity attacks the same problem in hardware.@.@.";
  let n = 1 lsl 19 in
  let searches = 20_000 in
  Format.fprintf ppf "  %-8s %14s %14s %8s@." "assoc" "uncolored" "colored"
    "gain";
  let rows =
    List.map
      (fun assoc ->
        let cfg =
          let base = e5000 () in
          {
            base with
            Config.l2 =
              Memsim.Cache_config.of_capacity ~name:"L2"
                ~capacity_bytes:(1 lsl 20) ~assoc ~block_bytes:64 ();
          }
        in
        let cost colored =
          measure_tree
            ~morph:{ Ccmorph.default_params with Ccmorph.color = colored }
            cfg (random_layout seed) ~n ~searches
            ~next_key:(uniform_keys n (sd seed 5 1))
        in
        let un = cost false and co = cost true in
        let gain = 100. *. (1. -. (co /. un)) in
        Format.fprintf ppf "  %-8d %14.1f %14.1f %7.1f%%@." assoc un co gain;
        J.Obj
          [
            ("assoc", J.Int assoc);
            ("uncolored", J.Float un);
            ("colored", J.Float co);
            ("gain_pct", J.Float gain);
          ])
      [ 1; 2; 4; 8 ]
  in
  Format.fprintf ppf "@.";
  J.Obj [ ("rows", J.List rows) ]

(* The hand-designed alternative (Table 3's "CC design" row): a
   cache-oblivious van Emde Boas tree layout against the naive layouts
   and the parameter-aware C-tree. *)
let veb_layout ?seed ppf =
  section ppf
    "Extension: hand-designed layouts -- van Emde Boas vs. the C-tree \
     (Table 3's first row)";
  Format.fprintf ppf
    "  The cache-oblivious vEB layout is the classic hand-designed \
     (\"CC design\")@.   alternative: optimal block-transfer behaviour at \
     every level without knowing@.   cache parameters -- but it cannot \
     reserve a hot region the way coloring does.@.@.";
  let n = 1 lsl 19 in
  let searches = 20_000 in
  let measure_layout ?morph layout =
    measure_tree ?morph (e5000 ()) layout ~n ~searches
      ~next_key:(uniform_keys n (sd seed 5 1))
  in
  let row label c =
    Format.fprintf ppf "  %-34s %8.1f cycles/search@." label c;
    J.Obj [ ("layout", J.String label); ("cycles_per_search", J.Float c) ]
  in
  let rows =
    [
      row "random layout" (measure_layout (random_layout seed));
      row "depth-first layout" (measure_layout Bst.Depth_first);
      row "van Emde Boas layout" (measure_layout Bst.Van_emde_boas);
      row "C-tree (ccmorph cluster+color)"
        (measure_layout ~morph:Ccmorph.default_params (random_layout seed));
    ]
  in
  Format.fprintf ppf
    "  (vEB needs no cache parameters and still beats the naive layouts; \
     the parameter-@.   aware C-tree beats vEB by pinning its hot \
     region)@.@.";
  J.Obj [ ("rows", J.List rows) ]

let studies : (string * (?seed:int -> Format.formatter -> J.t)) list =
  [
    ("color-frac", color_frac);
    ("cluster-scheme", cluster_scheme);
    ("zipf-skew", zipf_skew);
    ("hint-quality", hint_quality);
    ("mshr-sweep", mshr_sweep);
    ("page-aware", page_aware);
    ("interference", interference);
    ("dynamic-updates", dynamic_updates);
    ("miss-curves", miss_curves);
    ("associativity", associativity);
    ("veb-layout", veb_layout);
  ]

(* One job per study, each printing into its own buffer; the texts are
   printed in study order once every study is done. *)
(* Every study, each one {!Parallel.map} job, printed in {!names}
   order once all are done; the returned object maps each study name
   to its payload. *)
let all ?seed ppf =
  let study (_, run) =
    let buf = Buffer.create 1024 in
    let bppf = Format.formatter_of_buffer buf in
    let json = run ?seed bppf in
    Format.pp_print_flush bppf ();
    (Buffer.contents buf, json)
  in
  let results = Parallel.map study studies in
  J.Obj
    (List.map2
       (fun (name, _) (text, json) ->
         Format.pp_print_string ppf text;
         (name, json))
       studies results)
