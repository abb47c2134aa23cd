(** Layout engines for cache-conscious structure reorganization.

    The paper (Section 2.1) fixes two layouts: subtree clustering and
    depth-first chunking.  Engines consume a {!Tree} in the
    breadth-first form [Ccmorph]'s discovery produces (roots
    [0 .. nroots-1], the children of [v] the range
    [first_kid.(v) .. first_kid.(v+1) - 1], checked in one pass when
    built) and produce a {!Plan}: a node order cut into cache blocks,
    checked as it is built.  Engines walk the arrays with int stacks and
    queues and allocate no per-node list, tuple or closure.

    Built-in engines ({!Engine.builtins}) are the paper's two schemes.
    {!Veb.order} is the recursive van Emde Boas order that
    [Structures.Bst]'s [Van_emde_boas] allocation layout follows. *)

module Tree = Tree
module Plan = Plan
module Subtree = Subtree
module Veb = Veb
module Engine = Engine
