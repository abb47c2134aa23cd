(** Ablation studies for the design choices DESIGN.md calls out.

    These go beyond the paper's own evaluation: each experiment isolates
    one knob of the cache-conscious machinery and quantifies its
    contribution, including the "interactions among different
    structures" question the paper leaves as future work.

    Like {!Experiments}, every study prints a human table and returns
    its numbers as {!Obs.Json.t}.  [seed] reseeds the studies' random
    streams; omitting it reproduces the repository's historical
    constants exactly.

    Run them all with [ccsl-cli ablations]. *)

val color_frac : ?seed:int -> Format.formatter -> Obs.Json.t
(** Sweep the [Color_const] hot-region fraction (uncolored, 1/4, 1/2,
    3/4) for C-tree searches.  The paper fixes 1/2 without comment; this
    shows the trade-off (bigger hot region pins more of the tree but
    shrinks the cold region's effective cache). *)

val cluster_scheme : ?seed:int -> Format.formatter -> Obs.Json.t
(** Section 2.1's claim, measured both ways: subtree clustering wins for
    random searches, depth-first clustering wins for full depth-first
    walks. *)

val zipf_skew : ?seed:int -> Format.formatter -> Obs.Json.t
(** Coloring benefit as a function of access skew: uniform vs. Zipf
    (theta 0.8 and 1.2) searches on clustered trees with and without
    coloring. *)

val hint_quality : ?seed:int -> Format.formatter -> Obs.Json.t
(** [ccmalloc] with perfect hints (list predecessor), random hints, and
    null hints on a list-churn workload: the gains come from the hints,
    not the allocator. *)

val mshr_sweep : ?seed:int -> Format.formatter -> Obs.Json.t
(** Software-prefetched treeadd with 1..16 MSHRs: how much overlap the
    memory system must support before greedy prefetching pays. *)

val page_aware : ?seed:int -> Format.formatter -> Obs.Json.t
(** [ccmorph]'s depth-first cold-block emission on vs. off, with the TLB
    enabled: the page-locality share of the C-tree win. *)

val interference : ?seed:int -> Format.formatter -> Obs.Json.t
(** Two trees searched alternately: naive layouts, both colored into the
    {e same} hot region (they fight), and colored into {e disjoint}
    regions — the paper's future-work extension. *)

val dynamic_updates : ?seed:int -> Format.formatter -> Obs.Json.t
(** The Figure 5 caveat, tested: "we expect B-trees to perform better
    than transparent C-trees when trees change due to insertions and
    deletions".  Mixed insert/search workloads against a periodically
    re-morphed C-tree and a self-balancing B-tree, locating the
    crossover. *)

val associativity : ?seed:int -> Format.formatter -> Obs.Json.t
(** Coloring gain at L2 associativity 1..8 (same capacity): hardware
    associativity and software coloring attack the same conflict
    misses. *)

val miss_curves : ?seed:int -> Format.formatter -> Obs.Json.t
(** Record one steady-state search trace per layout and replay it
    through L2 capacities from 128 KB to 4 MB: the measured counterpart
    of the model's logarithmic [R_s] term. *)

val veb_layout : ?seed:int -> Format.formatter -> Obs.Json.t
(** The hand-designed alternative (Table 3's "CC design" row): a
    cache-oblivious van Emde Boas tree layout against the naive layouts
    and the parameter-aware C-tree. *)

val names : string list
(** The study names {!run_named} understands. *)

val run_named : ?seed:int -> string -> Format.formatter -> Obs.Json.t option

val all : ?seed:int -> Format.formatter -> Obs.Json.t
(** Every study, each one {!Parallel.map} job, printed in {!names}
    order once all are done; the returned object maps each study name
    to its payload. *)
