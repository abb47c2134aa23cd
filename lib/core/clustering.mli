(** Clustering's expected-access closed forms (paper Sections 2.1 and 5).

    Clustering decides which structure elements share a cache block: a
    plan assigns the nodes of a tree to blocks of at most [k] elements,
    where [k = ⌊b/e⌋] is how many elements fit in a cache block.  The
    planning algorithms are the pluggable {!Layout} engines (the paper's
    scheme is {!Layout.Subtree}, its depth-first baseline
    {!Layout.Depth_first}); this module keeps the expected number of
    accesses per entered block under each built-in engine: the
    spatial-locality factor [K] that {!Model.Ctree.miss_rate_k} takes. *)

val expected_accesses_subtree : k:int -> float
(** Expected number of accesses to a block per traversal through it under
    random binary search when the block holds a [k]-node subtree:
    [log2 (k+1)] (Section 2.1). *)

val expected_accesses_depth_first : k:int -> float
(** Same for a depth-first parent-child-grandchild chain:
    [sum_{i=0}^{k-1} (1/2)^i = 2 (1 - (1/2)^k)], which is < 2 for any
    [k] (Section 2.1). *)

val expected_accesses_veb : k:int -> float
(** Same for a block of the recursive van Emde Boas layout.  Within one
    block the vEB order is itself a (recursively laid out) subtree of
    the search tree, so a random search that enters the block resolves
    [log2 (k+1)] comparisons before leaving it — the subtree bound — and
    unlike subtree clustering the {e same} bound holds when [k] is the
    page capacity instead of the cache-block capacity (the
    cache-oblivious property; Lindstrom & Rajan). *)

val expected_accesses_weighted : k:int -> p:float -> float
(** Expected accesses per entered block for a hot-chain block of [k]
    nodes when the profiled traversal follows the packed hottest child
    with probability [p] at each step: [sum_{i=0}^{k-1} p^i
    = (1 - p^k) / (1 - p)] (and [k] exactly when [p = 1]).  At
    [p = 1/2] — an unprofiled random descent — this reduces to the
    depth-first form, which is why the weighted engine needs a real
    profile to win.
    @raise Invalid_argument if [p] is outside [0, 1]. *)
