(* The repository benchmark; README.md in this directory says what each
   workload and metric is for.

     ccsl_perf.exe --workload W --seed N --seconds S --trace 0|1
                   [--revision R] [--out DIR]

   One closed-loop caller in one domain.  A pass is one set-up followed
   by the workload's measured phase, and its simulated results depend
   only on the seed.  With --trace 0 passes repeat until S seconds have
   gone by (at least two) and the end-to-end metrics are printed.  With
   --trace 1 one untraced pass is followed by one pass with spans around
   every call into a layer; the per-layer metrics are printed and the
   spans are written under DIR.  Standard output ends with one JSON line
   holding correct, attempted, failed and metrics. *)

module M = Memsim.Machine
module H = Memsim.Hierarchy
module Cache = Memsim.Cache
module A = Alloc.Allocator
module C = Olden.Common
module Ex = Harness.Experiments
module Bst = Structures.Bst
module Rng = Workload.Rng
module Morph = Ccsl.Ccmorph
module J = Obs.Json

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "check failed: %s\n%!" what
  end

(* ------------------------------------------------------------------ *)
(* Simulated counts: exact for a seed, traced or not                    *)
(* ------------------------------------------------------------------ *)

type counts = {
  mutable accesses : int;
  mutable l1_misses : int;
  mutable l2_misses : int;
  mutable tlb_misses : int;
  mutable busy : int;
  mutable load_stall : int;
  mutable store_stall : int;
  mutable cycles : int;
  mutable allocs : int;
  mutable frees : int;
  mutable bytes_requested : int;
  mutable bytes_reserved : int;
  mutable cc_hinted : int;
  mutable cc_same_block : int;
  mutable cc_fallbacks : int;
  mutable cc_pages : int;
  mutable morphs : int;
  mutable morph_nodes : int;
  mutable morph_bytes : int;
  mutable morph_pages : int;
  mutable morph_hot : int;
  mutable obs_events : int;
}

let zero () =
  {
    accesses = 0;
    l1_misses = 0;
    l2_misses = 0;
    tlb_misses = 0;
    busy = 0;
    load_stall = 0;
    store_stall = 0;
    cycles = 0;
    allocs = 0;
    frees = 0;
    bytes_requested = 0;
    bytes_reserved = 0;
    cc_hinted = 0;
    cc_same_block = 0;
    cc_fallbacks = 0;
    cc_pages = 0;
    morphs = 0;
    morph_nodes = 0;
    morph_bytes = 0;
    morph_pages = 0;
    morph_hot = 0;
    obs_events = 0;
  }

(* The machine's counters since its last statistics reset. *)
let add_machine c m =
  let h = H.stats (M.hierarchy m) in
  let s = M.snapshot m in
  c.accesses <- c.accesses + Cache.accesses h.H.h_l1;
  c.l1_misses <- c.l1_misses + Cache.misses h.H.h_l1;
  c.l2_misses <- c.l2_misses + Cache.misses h.H.h_l2;
  c.tlb_misses <-
    (c.tlb_misses
    + match h.H.h_tlb with Some t -> t.Memsim.Tlb.t_misses | None -> 0);
  c.busy <- c.busy + s.Memsim.Cost.s_busy;
  c.load_stall <- c.load_stall + s.Memsim.Cost.s_load_stall;
  c.store_stall <- c.store_stall + s.Memsim.Cost.s_store_stall;
  c.cycles <- c.cycles + s.Memsim.Cost.s_total

let add_alloc c (a : A.t) =
  let s = a.A.stats () in
  c.allocs <- c.allocs + s.A.allocations;
  c.frees <- c.frees + s.A.frees;
  c.bytes_requested <- c.bytes_requested + s.A.bytes_requested;
  c.bytes_reserved <- c.bytes_reserved + s.A.bytes_reserved

let add_ccmalloc c what cc =
  let k = Ccsl.Ccmalloc.counters cc in
  check
    (what ^ ": ccmalloc c_hinted = c_hinted_same_page + c_strategy_fallbacks")
    (k.Ccsl.Ccmalloc.c_hinted
    = k.Ccsl.Ccmalloc.c_hinted_same_page + k.Ccsl.Ccmalloc.c_strategy_fallbacks);
  c.cc_hinted <- c.cc_hinted + k.Ccsl.Ccmalloc.c_hinted;
  c.cc_same_block <- c.cc_same_block + k.Ccsl.Ccmalloc.c_hinted_same_block;
  c.cc_fallbacks <- c.cc_fallbacks + k.Ccsl.Ccmalloc.c_strategy_fallbacks;
  c.cc_pages <- c.cc_pages + k.Ccsl.Ccmalloc.c_pages_opened

(* ccmorph observations land in the counts of the pass being run. *)
let morph_sink = ref (zero ())

let observe_morphs () =
  ignore
    (Morph.add_observer (fun o ->
         let c = !morph_sink and r = o.Morph.obs_result in
         c.morphs <- c.morphs + 1;
         c.morph_nodes <- c.morph_nodes + r.Morph.nodes;
         c.morph_bytes <- c.morph_bytes + r.Morph.bytes_copied;
         c.morph_pages <- c.morph_pages + r.Morph.pages_used;
         c.morph_hot <- c.morph_hot + r.Morph.hot_blocks))

(* ------------------------------------------------------------------ *)
(* Tracing: spans around the calls into each layer                      *)
(* ------------------------------------------------------------------ *)

(* Where a traced call's span goes: the recorder and the parent id. *)
type trace = (Spans.t * int) option

let l1_refs m =
  let l1 = H.l1 (M.hierarchy m) in
  fun () -> Cache.accesses (Cache.stats l1)

(* Runs [f] inside span [name] when traced, handing it the trace its own
   calls nest under. *)
let within (trace : trace) ~name ~label refs f =
  match trace with
  | None -> f None
  | Some (t, parent) ->
      let s = Spans.span t ~parent ~label name in
      Spans.enter s (refs ());
      let r = f (Some (t, s.Spans.id)) in
      Spans.leave s (refs ());
      r

(* The allocator with every closure timed into aggregate spans under
   [parent], and a check that the wrapper's call counts match the
   allocator's own statistics. *)
let traced_allocator t ~parent m (a : A.t) =
  let refs = l1_refs m in
  let sa = Spans.span t ~parent "alloc.alloc"
  and sf = Spans.span t ~parent "alloc.free"
  and so = Spans.span t ~parent "alloc.owns" in
  let wrapped =
    {
      a with
      A.alloc =
        (fun ?hint ?site bytes ->
          Spans.enter sa (refs ());
          let p = a.A.alloc ?hint ?site bytes in
          Spans.leave sa (refs ());
          p);
      free =
        (fun p ->
          Spans.enter sf (refs ());
          a.A.free p;
          Spans.leave sf (refs ()));
      owns =
        (fun p ->
          Spans.enter so (refs ());
          let r = a.A.owns p in
          Spans.leave so (refs ());
          r);
    }
  in
  let verify what =
    let s = a.A.stats () in
    check
      (what ^ ": wrapped allocator call counts = Allocator.stats")
      (Spans.calls sa = s.A.allocations && Spans.calls sf = s.A.frees)
  in
  (wrapped, verify)

(* One arm of a workload: [f] gets the allocator to use, wrapped when
   traced. *)
let arm trace ~name ~label m alloc f =
  within trace ~name ~label (l1_refs m) (function
    | None -> f alloc
    | Some (t, parent) ->
        let wrapped, verify = traced_allocator t ~parent m alloc in
        let r = f wrapped in
        verify label;
        r)

(* The engine with [plan] timed into an aggregate span.  Name and
   cold_order are unchanged, so ccmorph treats it as the original. *)
let traced_engine t ~parent m (e : Layout.Engine.t) =
  let refs = l1_refs m in
  let s = Spans.span t ~parent ~label:e.Layout.Engine.name "layout.plan" in
  {
    e with
    Layout.Engine.plan =
      (fun tree ~k ->
        Spans.enter s (refs ());
        let p = e.Layout.Engine.plan tree ~k in
        Spans.leave s (refs ());
        p);
  }

(* ------------------------------------------------------------------ *)
(* Host speed                                                           *)
(* ------------------------------------------------------------------ *)

(* The shared hosts this benchmark runs on switch, every few seconds to
   minutes, between a fast state and one in which code that writes much
   memory takes up to 1.7x as long, while integer loops and read-only
   pointer chases barely slow.  Raw wall times of one workload therefore
   spread by a sixth to a third across runs.  So a fixed reference kernel
   that writes memory is timed between every two units of measured work,
   and a unit's time is scaled by [reference_s] over the median of the
   six reference timings nearest it, three before and three after: host
   times are reported in reference seconds, the time the unit takes when
   the reference takes [reference_s].  The kernel is the benchmark's own
   code, so no change to the program moves it. *)
let reference_s = 0.06

(* Outside the OCaml heap, so peak_heap_mb does not count it. *)
let scratch = Bigarray.(Array1.create int c_layout (1 lsl 22))

(* Six sequential fills of a 32 MB array (write bandwidth), then 6M
   short-lived list cells (minor allocation; none survive, so the major
   heap is left alone). *)
let reference () =
  let t0 = now () in
  for k = 1 to 6 do
    Bigarray.Array1.fill scratch k
  done;
  let l = ref [] in
  for i = 1 to 6_000_000 do
    l := [ (i, i) ]
  done;
  ignore (Sys.opaque_identity !l);
  now () -. t0

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Every reference timing of the run, newest first, and how many. *)
let ref_log = ref []
let ref_count = ref 0

let log_reference () =
  ref_log := reference () :: !ref_log;
  incr ref_count

(* A timed piece of work: its host seconds, and the index in the log of
   the first reference timed after it (-1 when traced, unscaled). *)
type sample = { dt : float; at : int }

let unscaled dt = { dt; at = -1 }

(* Read once every pass has run. *)
let to_reference_s =
  let log = lazy (Array.of_list (List.rev !ref_log)) in
  fun s ->
    let log = Lazy.force log in
    if s.at < 0 then 0.
    else
      let lo = max 0 (s.at - 3) and hi = min (Array.length log - 1) (s.at + 2) in
      s.dt *. reference_s /. median (Array.to_list (Array.sub log lo (hi - lo + 1)))

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)
(* ------------------------------------------------------------------ *)

type pass = {
  setup : sample;  (** median set-up time of the pass; 0 when traced *)
  units : sample list;  (** the units of the measured phase *)
  words : float;  (** minor words allocated in the units *)
  counts : counts;
}

let host_s p = List.fold_left (fun acc u -> acc +. u.dt) 0. p.units
let wall_reference_s p = List.fold_left (fun acc u -> acc +. to_reference_s u) 0. p.units

(* Untraced, set-up runs [runs] times between two reference timings and
   the pass keeps the median, so a set-up that takes a millisecond is
   still a steady number; the last one feeds the measured phase.  The
   count is fixed, not timed, so the garbage it leaves (and with it the
   peak heap) is the same on every run.  Traced, it runs once, with its
   spans at top level. *)
let setup_phase ~runs tr f =
  match tr with
  | Some t -> (unscaled 0., f (Some (t, Spans.no_parent)))
  | None ->
      log_reference ();
      let rec go samples k =
        let t0 = now () in
        let r = f None in
        let samples = (now () -. t0) :: samples in
        if k <= 1 then (median samples, r) else go samples (k - 1)
      in
      let dt, r = go [] runs in
      let s = { dt; at = !ref_count } in
      log_reference ();
      (s, r)

(* The measured phase is a sequence of units, each run through [timed].
   Untraced, a reference timing sits between consecutive units; only the
   units' own time and minor words are counted. *)
type clock = {
  scaled : bool;
  mutable samples : sample list;
  mutable words_ : float;
}

let timed c f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  c.words_ <- c.words_ +. (Gc.minor_words () -. w0);
  if c.scaled then begin
    c.samples <- { dt; at = !ref_count } :: c.samples;
    log_reference ()
  end
  else c.samples <- unscaled dt :: c.samples;
  r

(* The measured phase starts after a full major collection, so set-up
   garbage is not collected on its clock. *)
let measure tr f =
  Gc.full_major ();
  let c = { scaled = tr = None; samples = []; words_ = 0. } in
  if c.scaled then log_reference ();
  let r =
    within
      (Option.map (fun t -> (t, Spans.no_parent)) tr)
      ~name:"pass" ~label:"" (fun () -> 0) (f c)
  in
  (r, c)

let pass ~setup c counts = { setup; units = List.rev c.samples; words = c.words_; counts }

(* fig7: Figure 7 at quick scale, 4 Olden kernels x 8 placements, each
   arm on a fresh Table-1 machine, whole program measured. *)
let fig7_pass ~seed tr =
  let counts = zero () in
  morph_sink := counts;
  let ta, h, mst, per = Ex.olden_params ~seed Ex.Quick in
  let kernels =
    [
      ("treeadd", fun ctx p -> Olden.Treeadd.run ~params:ta ~measure_whole:true ~ctx p);
      ("health", fun ctx p -> Olden.Health.run ~params:h ~measure_whole:true ~ctx p);
      ("mst", fun ctx p -> Olden.Mst.run ~params:mst ~measure_whole:true ~ctx p);
      ( "perimeter",
        fun ctx p -> Olden.Perimeter.run ~params:per ~measure_whole:true ~ctx p );
    ]
  in
  (* A queue, so each arm's machine is garbage once the arm has run. *)
  let setup, arms =
    setup_phase ~runs:50 tr (fun _ ->
        let q = Queue.create () in
        List.iter
          (fun (kernel, run) ->
            List.iter (fun p -> Queue.add (kernel, run, p, C.make_ctx p) q) C.all_placements)
          kernels;
        q)
  in
  let run_arm clock trace (kernel, run, p, (ctx : C.ctx)) =
    let label = kernel ^ "/" ^ C.label p in
    let r =
      timed clock (fun () ->
          arm trace ~name:"olden.arm" ~label ctx.C.machine ctx.C.alloc (fun alloc ->
              run { ctx with C.alloc = alloc } p))
    in
    add_machine counts ctx.C.machine;
    add_alloc counts ctx.C.alloc;
    Option.iter (add_ccmalloc counts label) ctx.C.cc;
    (kernel, p, r)
  in
  let results, clock =
    measure tr (fun clock trace ->
        let rec go acc =
          match Queue.take_opt arms with
          | None -> List.rev acc
          | Some a -> go (run_arm clock trace a :: acc)
        in
        go [])
  in
  List.iter
    (fun (kernel, p, (r : C.result)) ->
      let base =
        List.find_map
          (fun (k, q, b) -> if k = kernel && q = C.Base then Some b else None)
          results
        |> Option.get
      in
      if p <> C.Base then
        check
          (Printf.sprintf "fig7 %s/%s checksum %d = base checksum %d" kernel
             (C.label p) r.C.checksum base.C.checksum)
          (r.C.checksum = base.C.checksum))
    results;
  pass ~setup clock counts

(* tree-search: Figure 5's read-only search.  A random-order BST of
   2^18-1 keys (~5 MB at 20-byte nodes, past the 1 MB L2 and the 512 KB
   TLB reach) is built through malloc during set-up; the measured phase
   morphs it once per layout engine and searches it from cold caches. *)
let tree_keys = (1 lsl 18) - 1
let tree_searches = 100_000
let tree_config () = Memsim.Config.ultrasparc_e5000 ~tlb:true ()

let tree_pass ~seed tr =
  let counts = zero () in
  morph_sink := counts;
  let elem_bytes = Bst.default_elem_bytes in
  let setup, (m, malloc, tree, queries) =
    (* one build: it takes ~0.3 s, and more copies of its heap would slow
       the measured phase *)
    setup_phase ~runs:1 tr (fun trace ->
        let m = M.create (tree_config ()) in
        let malloc = Alloc.Malloc.allocator (Alloc.Malloc.create m) in
        let keys = Array.init tree_keys Fun.id in
        let tree =
          arm trace ~name:"setup" ~label:"bst.build" m malloc (fun alloc ->
              Bst.build ~elem_bytes ~alloc m (Bst.Random (Rng.create seed)) ~keys)
        in
        let rng = Rng.create (seed + 17) in
        (m, malloc, tree, Array.init tree_searches (fun _ -> Rng.int rng tree_keys)))
  in
  add_alloc counts malloc;
  let refs = l1_refs m in
  let (), clock =
    measure tr (fun clock trace ->
        List.iter
          (fun (e : Layout.Engine.t) ->
            let name = e.Layout.Engine.name in
            let r =
              timed clock (fun () ->
                  M.cold_start m;
                  within trace ~name:"ccmorph.morph" ~label:name refs (fun inner ->
                      let engine =
                        match inner with
                        | None -> e
                        | Some (t, parent) -> traced_engine t ~parent m e
                      in
                      let params =
                        { Morph.default_params with Morph.cluster = Morph.Engine engine }
                      in
                      Morph.morph ~params m (Bst.desc ~elem_bytes) ~root:tree.Bst.root))
            in
            add_machine counts m;
            check
              ("tree-search/" ^ name ^ ": morph moved every node")
              (r.Morph.nodes = tree_keys);
            let morphed =
              Bst.of_root m ~elem_bytes ~n:tree_keys r.Morph.new_root
            in
            let found =
              timed clock (fun () ->
                  M.cold_start m;
                  within trace ~name:"search.loop" ~label:name refs (fun _ ->
                      Array.fold_left
                        (fun n k -> if Bst.search morphed k then n + 1 else n)
                        0 queries))
            in
            add_machine counts m;
            check
              ("tree-search/" ^ name ^ ": every searched key found")
              (found = tree_searches))
          Layout.Engine.builtins)
  in
  pass ~setup clock counts

(* health-profiled: the health Base arm with the locality profilers
   subscribed, on the machine [ccsl-cli profile] uses.  It runs 3 levels
   and 200 steps instead of quick scale's 4 and 365, so a pass takes ~1.5 s
   and a run holds a dozen or more of them.  Its unobserved twin runs after
   the measured phase: it is the reference for the observer's cost and for
   the check that observing changes no simulated result. *)
let health_pass ~seed tr =
  let counts = zero () in
  morph_sink := counts;
  let _, params, _, _ = Ex.olden_params ~seed Ex.Quick in
  let params = { params with Olden.Health.levels = 3; steps = 200 } in
  let config = Harness.Profiles.default_config C.Base in
  let setup, (observed, profile, plain) =
    setup_phase ~runs:200 tr (fun _ ->
        let observed = C.make_ctx ~config C.Base in
        let profile = Obs.Profile.for_machine observed.C.machine in
        (observed, profile, C.make_ctx ~config C.Base))
  in
  let run_arm trace name (ctx : C.ctx) =
    arm trace ~name ~label:"health/B" ctx.C.machine ctx.C.alloc (fun alloc ->
        Olden.Health.run ~params ~measure_whole:true
          ~ctx:{ ctx with C.alloc = alloc } C.Base)
  in
  let observed_result, clock =
    measure tr (fun clock trace ->
        timed clock (fun () ->
            let m = observed.C.machine in
            let sub = Obs.Profile.attach profile m in
            let r = run_arm trace "obs.observed_arm" observed in
            M.unsubscribe m sub;
            r))
  in
  add_machine counts observed.C.machine;
  add_alloc counts observed.C.alloc;
  counts.obs_events <- Obs.Profile.Reuse.accesses profile.Obs.Profile.reuse;
  Gc.full_major ();
  let plain_result =
    run_arm
      (Option.map (fun t -> (t, Spans.no_parent)) tr)
      "olden.arm" plain
  in
  check "health-profiled: the observed arm's simulated results = the unobserved arm's"
    (observed_result.C.snapshot = plain_result.C.snapshot
    && observed_result.C.checksum = plain_result.C.checksum
    && H.stats (M.hierarchy observed.C.machine)
       = H.stats (M.hierarchy plain.C.machine));
  pass ~setup clock counts

type workload = {
  name : string;
  machine : string;
  pass : seed:int -> Spans.t option -> pass;
}

let workloads =
  [
    {
      name = "fig7";
      machine = "RSIM-Table1, no TLB (HP arms add the next-line prefetcher)";
      pass = fig7_pass;
    };
    {
      name = "tree-search";
      machine = (tree_config ()).Memsim.Config.name ^ " with TLB";
      pass = tree_pass;
    };
    {
      name = "health-profiled";
      machine = "RSIM-Table1 profiling variant (1-block L1, 16-way L2), no TLB";
      pass = health_pass;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0. then 0. else a /. b

let end_to_end passes =
  let c = (List.hd passes).counts in
  let wall = median (List.map wall_reference_s passes) in
  let words = median (List.map (fun p -> p.words) passes) in
  let accesses = float_of_int c.accesses in
  let top_heap_bytes = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  [
    ("wall_ref_s", "s", Some wall);
    ("setup_s", "s", Some (median (List.map (fun p -> to_reference_s p.setup) passes)));
    ("sim_accesses_per_ref_s", "1/s", Some (accesses /. wall));
    ("host_words_per_access", "words", Some (words /. accesses));
    ("peak_heap_mb", "MB", Some (float_of_int top_heap_bytes /. 1048576.));
    ("sim_cycles", "cycles", Some (float_of_int c.cycles));
  ]

(* Per-layer metrics of the traced pass [p].  Host costs come from the
   spans: allocator spans sit under "olden.arm" (fig7, and health's
   unobserved arm) or "setup" (tree-search); a metric whose spans do not
   occur on a workload is [None]. *)
let per_layer tr p ~untraced_wall_s =
  let spans = Spans.spans tr in
  let named n = List.filter (fun s -> s.Spans.name = n) spans in
  let total f l = List.fold_left (fun acc s -> acc +. f s) 0. l in
  let measured f = function [] -> None | l -> Some (total f l) in
  let allocs_under l =
    List.concat_map
      (fun s ->
        List.filter
          (fun c -> String.starts_with ~prefix:"alloc." c.Spans.name)
          (Spans.children tr s))
      l
  in
  let kernel = named "olden.arm" and search = named "search.loop" in
  let observed = named "obs.observed_arm" in
  let allocs = allocs_under (kernel @ named "setup") in
  let self = Spans.self_s tr in
  let ns_per_access =
    match (kernel, search) with
    | [], [] -> None
    | [], _ -> Some (1e9 *. ratio (total Spans.dur search) (total Spans.refs search))
    | _ ->
        Some
          (1e9
          *. ratio (total self kernel)
               (total Spans.refs kernel -. total Spans.refs (allocs_under kernel)))
  in
  let obs_s =
    match observed with
    | [] -> None
    | _ -> Some (total Spans.dur observed -. total Spans.dur kernel)
  in
  let c = p.counts in
  let fl = float_of_int in
  let count x = Some (fl x) in
  [
    ("memsim.accesses", "count", count c.accesses);
    ("memsim.l1_misses", "count", count c.l1_misses);
    ("memsim.l2_misses", "count", count c.l2_misses);
    ("memsim.tlb_misses", "count", count c.tlb_misses);
    ("memsim.l2_misses_per_ref", "ratio", Some (ratio (fl c.l2_misses) (fl c.accesses)));
    ("memsim.busy_cycles", "cycles", count c.busy);
    ("memsim.load_stall_cycles", "cycles", count c.load_stall);
    ("memsim.store_stall_cycles", "cycles", count c.store_stall);
    ("memsim.host_ns_per_access", "ns", ns_per_access);
    ("alloc.calls", "count", count c.allocs);
    ("alloc.frees", "count", count c.frees);
    ("alloc.host_s", "s", measured Spans.dur allocs);
    ("alloc.host_words", "words", measured Spans.words allocs);
    ("alloc.bytes_reserved", "bytes", count c.bytes_reserved);
    ( "alloc.overhead_ratio",
      "ratio",
      Some
        (if c.bytes_requested = 0 then 0.
         else (fl c.bytes_reserved /. fl c.bytes_requested) -. 1.) );
    ("ccmalloc.same_block_ratio", "ratio", Some (ratio (fl c.cc_same_block) (fl c.cc_hinted)));
    ("ccmalloc.fallbacks", "count", count c.cc_fallbacks);
    ("ccmalloc.pages_opened", "count", count c.cc_pages);
    ("ccmorph.calls", "count", count c.morphs);
    ("ccmorph.nodes", "count", count c.morph_nodes);
    ("ccmorph.bytes_copied", "bytes", count c.morph_bytes);
    ("ccmorph.pages_used", "count", count c.morph_pages);
    ("ccmorph.hot_blocks", "count", count c.morph_hot);
    ("ccmorph.host_s", "s", measured Spans.dur (named "ccmorph.morph"));
    ("ccmorph.host_words", "words", measured Spans.words (named "ccmorph.morph"));
    ("layout.plan_host_s", "s", measured Spans.dur (named "layout.plan"));
    ("olden.self_s", "s", measured self kernel);
    ("search.self_s", "s", measured self search);
    ("obs.events", "count", Option.map (fun _ -> fl c.obs_events) obs_s);
    ("obs.host_s", "s", obs_s);
    ( "obs.slowdown",
      "ratio",
      Option.map
        (fun _ -> ratio (total Spans.dur observed) (total Spans.dur kernel))
        obs_s );
    ( "obs.host_ns_per_event",
      "ns",
      Option.map (fun s -> 1e9 *. ratio s (fl c.obs_events)) obs_s );
    ("trace.overhead_ratio", "ratio", Some (ratio (host_s p) untraced_wall_s));
    ("check_fail_ratio", "ratio", Some (ratio (fl !failed) (fl !attempted)));
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let not_measured =
  [
    "ccmorph host time inside fig7: the Olden kernels call Ccmorph.morph \
     themselves, so it is part of olden.self_s";
    "the split of kernel host time between memsim and the kernels: every \
     kernel step is a simulated access, so olden.self_s and \
     memsim.host_ns_per_access each cover both";
    "lib/adapt and lib/analyze";
  ]

let run_record w ~seed ~seconds ~trace ~revision passes metrics =
  let gc = Gc.get () in
  let c = (List.hd passes).counts in
  let floats f = J.List (List.map (fun p -> J.Float (f p)) passes) in
  J.Obj
    [
      ("workload", J.String w.name);
      ("seed", J.Int seed);
      ("scale", J.String (Ex.scale_name Ex.Quick));
      ("machine", J.String w.machine);
      ("revision", J.String revision);
      ("ocaml", J.String Sys.ocaml_version);
      ( "gc",
        J.Obj
          [
            ("minor_heap_words", J.Int gc.Gc.minor_heap_size);
            ("space_overhead", J.Int gc.Gc.space_overhead);
            ( "OCAMLRUNPARAM",
              J.String (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")) );
          ] );
      ("load", J.String "batch: one closed-loop caller, one domain");
      ("seconds", J.Int seconds);
      ("trace", J.Int trace);
      ("reference_s", J.Float reference_s);
      ("pass_wall_ref_s", floats wall_reference_s);
      ("pass_wall_host_s", floats host_s);
      ("pass_setup_host_s", floats (fun p -> p.setup.dt));
      ("reference_host_s", J.List (List.rev_map (fun r -> J.Float r) !ref_log));
      ("sim_digest", J.String (Digest.to_hex (Digest.string (Marshal.to_string c []))));
      ( "not_applicable",
        J.List
          (List.filter_map
             (fun (n, _, v) -> if v = None then Some (J.String n) else None)
             metrics) );
      ("not_measured", J.List (List.map (fun s -> J.String s) not_measured));
    ]

let result metrics =
  J.Obj
    [
      ("correct", J.Bool (!failed = 0));
      ("attempted", J.Int !attempted);
      ("failed", J.Int !failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (n, u, v) ->
               ( n,
                 J.Obj
                   [
                     ("value", J.Float (Option.value ~default:0. v));
                     ("unit", J.String u);
                   ] ))
             metrics) );
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let min_passes = 2

(* No pass starts that would end past this, so a run stays well inside
   the three minutes a run may take. *)
let budget_s = 150.

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and revision = ref "unknown" and out = ref "perfbench/out" in
  let usage =
    "ccsl_perf.exe --workload W --seed N --seconds S --trace 0|1 \
     [--revision R] [--out DIR]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W fig7 | tree-search | health-profiled");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S how long an untraced run repeats passes");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--revision", Arg.Set_string revision, "R source revision for the run record");
      ("--out", Arg.Set_string out, "DIR where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S\n%s\n" !workload usage;
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  observe_morphs ();
  let seed = !seed in
  let started = now () in
  let first = w.pass ~seed None in
  let passes, metrics, spans =
    if !trace = 0 then begin
      let rec more passes last_s =
        let elapsed = now () -. started in
        if
          List.length passes >= min_passes
          && (elapsed >= float_of_int !seconds || elapsed +. last_s > budget_s)
        then List.rev passes
        else
          let t0 = now () in
          let p = w.pass ~seed None in
          more (p :: passes) (now () -. t0)
      in
      let passes = more [ first ] (now () -. started) in
      List.iter
        (fun p ->
          check "simulated counts repeat exactly across passes of one seed"
            (p.counts = first.counts))
        passes;
      (passes, end_to_end passes, None)
    end
    else begin
      let tr =
        Spans.create (Printf.sprintf "%s-seed%d-%.0f" w.name seed (started *. 1e3))
      in
      let p = w.pass ~seed (Some tr) in
      check "tracing leaves the simulated counts unchanged" (p.counts = first.counts);
      ([ first; p ], per_layer tr p ~untraced_wall_s:(host_s first), Some tr)
    end
  in
  let record =
    run_record w ~seed ~seconds:!seconds ~trace:!trace ~revision:!revision passes
      metrics
  in
  Option.iter
    (fun tr ->
      mkdir_p !out;
      J.write_file
        (Filename.concat !out (Printf.sprintf "spans-%s-seed%d.json" w.name seed))
        (J.Obj [ ("run_record", record); ("spans", Spans.to_json tr) ]))
    spans;
  print_endline (J.to_string ~minify:true (J.Obj [ ("run_record", record) ]));
  print_endline (J.to_string ~minify:true (result metrics))
