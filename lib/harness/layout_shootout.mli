(** Multi-level layout-engine shootout.

    Runs every built-in layout engine — the paper's subtree and
    depth-first schemes, the recursive van Emde Boas engine, and the
    profile-weighted engine — over the same workload on a TLB-modeling
    machine, and reports {e per-level} results: L1 misses,
    L2 misses, TLB misses, and cycles.  The multilevel view is exactly
    what distinguishes a cache-oblivious layout from the paper's
    L2-only clustering: subtree clustering optimizes the one block size
    it was planned with, vEB optimizes every granularity at once.

    Workloads ([names]):
    - ["micro"] — the Figure 5 tree microbenchmark on the UltraSPARC
      machine with its TLB modeled: build a random-layout BST (deep
      enough that its footprint exceeds the TLB reach), profile a
      skewed search mix with [Obs.Profile.Counts], morph with each
      engine (the counts feed [params.weights]), then measure
      cold-start searches.
    - ["health"], ["treeadd"] — the Olden benchmarks under
      [Ccmorph_cluster_color] with the engine swapped into
      [morph_params], whole-program measurement, on [rsim_table1] with
      a TLB.

    Each engine runs as an independent job through {!Parallel.map}; the
    typed rows come back marshalled, byte-identical to an in-process
    run. *)

type level = {
  lv_accesses : int;
  lv_misses : int;
  lv_miss_rate : float;
}

type row = {
  row_engine : string;
  row_cycles : int;
  row_checksum : int;  (** must agree across engines for one workload *)
  row_l1 : level;
  row_l2 : level;
  row_tlb : level option;  (** [None] when the machine models no TLB *)
  row_blocks_used : int;
  row_hot_blocks : int;
  row_pages_used : int;  (** last morph's footprint, from the observer *)
}

type report = {
  bench : string;
  scale : Experiments.scale;
  rows : row list;  (** one per engine, in {!engine_schemes} order *)
}

val names : string list
(** ["micro"; "health"; "treeadd"]. *)

val engine_schemes : (string * Ccsl.Ccmorph.cluster_scheme) list
(** The contenders ([Layout.Engine.builtins] as explicit [Engine]
    schemes), name first. *)

val run : ?scale:Experiments.scale -> ?seed:int -> string -> report option
(** [None] for an unknown workload name.  Default scale: [Quick]. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> Obs.Json.t
