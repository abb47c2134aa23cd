(** Pluggable layout engines for cache-conscious structure
    reorganization.

    The paper (Section 2.1) fixes two layouts — subtree clustering and
    depth-first chunking — but its evaluation shows layout choice is the
    dominant lever.  This library makes the layout a first-class,
    swappable component: engines consume a {!Tree} in the breadth-first
    form [Ccmorph]'s discovery produces (roots [0 .. nroots-1], the
    children of [v] the range [first_kid.(v) .. first_kid.(v+1) - 1],
    optional per-node access weights; checked in one pass when built)
    and produce a {!Plan}: a node order cut into cache blocks, checked
    as it is built.  [Ccmorph] and the harnesses treat "which layout" as
    a parameter.  Engines walk the arrays with int stacks and queues and
    allocate no per-node list, tuple or closure.

    Built-in engines ({!Engine.builtins}): the paper's two schemes, a
    recursive van Emde Boas engine ({!Veb}, cache-oblivious: optimal
    across L1/L2/TLB simultaneously) and a profile-weighted hot-path
    engine ({!Weighted}, Alstrup-style). *)

module Tree = Tree
module Plan = Plan
module Subtree = Subtree
module Veb = Veb
module Weighted = Weighted
module Engine = Engine
