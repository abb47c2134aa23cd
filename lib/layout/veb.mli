(** Recursive van Emde Boas (hierarchical) order for arbitrary —
    including unbalanced — trees.

    The classic vEB layout splits a complete tree of height [h] at depth
    [h/2] and lays out the top tree followed by each bottom tree, each
    laid out recursively the same way.  The recursion makes the layout
    {e cache-oblivious}: a root-to-leaf path crosses O(log_B n) blocks
    for {e every} block size [B] (Lindstrom & Rajan; Alstrup et al.,
    "Efficient Tree Layout in a Multilevel Memory Hierarchy").

    This generalization follows the Alstrup et al. weight-free rule for
    arbitrary shapes: split at half the {e remaining height limit}, with
    each node deeper than its subtree's height simply absent from the
    bottom recursion.  It is the allocation order of the hand-designed
    vEB tree the [veb-layout] ablation measures against the C-tree (the
    paper's Table 3 "CC design" comparison), not a [Ccmorph] engine. *)

val order : Tree.t -> int array
(** The recursive emission order: every node once, each tree of the
    forest in turn, starting at its root.  Runs in O(n log h) for
    height [h].  [Structures.Bst]'s [Van_emde_boas] allocation order is
    this order, mapped back to its ids through {!Tree.of_kids}. *)
