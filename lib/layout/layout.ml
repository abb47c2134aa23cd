(** Pluggable layout engines for cache-conscious structure
    reorganization.

    The paper (Section 2.1) fixes two layouts — subtree clustering and
    depth-first chunking — but its evaluation shows layout choice is the
    dominant lever.  This library makes the layout a first-class,
    swappable component: engines consume an abstract {!Tree} (node
    count, children as flat offset and child-id arrays, forest roots,
    optional per-node access weights; validated once when built) and
    produce a {!Plan} — a partition of the nodes into cache blocks —
    so [Ccmorph] and the harnesses can treat "which layout" as a
    parameter.  Engines walk the arrays with int stacks and queues and
    allocate no per-node list, tuple or closure.

    Built-in engines ({!Engine.builtins}): the paper's two schemes, a
    recursive van Emde Boas engine ({!Veb}, cache-oblivious: optimal
    across L1/L2/TLB simultaneously) and a profile-weighted hot-path
    engine ({!Weighted}, Alstrup-style). *)

module Tree = Tree
module Plan = Plan
module Subtree = Subtree
module Depth_first = Depth_first
module Veb = Veb
module Weighted = Weighted
module Engine = Engine

let check_plan = Plan.check
