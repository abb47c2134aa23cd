(** Recursive van Emde Boas (hierarchical) layout for arbitrary —
    including unbalanced — trees.

    The classic vEB layout splits a complete tree of height [h] at depth
    [h/2] and lays out the top tree followed by each bottom tree, each
    laid out recursively the same way.  The recursion makes the layout
    {e cache-oblivious}: a root-to-leaf path crosses O(log_B n) blocks
    for {e every} block size [B] simultaneously — cache blocks, pages,
    any level of the hierarchy — where the paper's subtree clustering
    optimizes only the one level it was sized for (Lindstrom & Rajan;
    Alstrup et al., "Efficient Tree Layout in a Multilevel Memory
    Hierarchy").

    This generalization follows the Alstrup et al. weight-free rule for
    arbitrary shapes: split at half the {e remaining height limit}, with
    each node deeper than its subtree's height simply absent from the
    bottom recursion.  Emission order is the recursive-subdivision
    order; the forest roots land first, so block 0 holds the tree top
    and the plan composes with {!Ccmorph}'s coloring hot-prefix and its
    cold-block emission. *)

val order : Tree.t -> int array
(** The recursive emission order: every node once, each tree of the
    forest in turn, starting at its root.  Runs in O(n log h) for
    height [h].  [Structures.Bst]'s [Van_emde_boas] allocation order is
    this order, mapped back to its ids through {!Tree.of_kids}. *)

val plan : Tree.t -> k:int -> Plan.t
(** Chunks {!order} into [k]-element blocks.
    @raise Invalid_argument if [k < 1] ({!Tree} rejects malformed trees
    when they are built). *)
