(** The pluggable layout-engine interface.

    An engine turns an abstract tree into a {!Plan.t} for block capacity
    [k], plus a declaration of how its cold (uncolored) blocks should be
    assigned to pages, which [Ccmorph] follows:

    - [Dfs_first_visit]: emit cold blocks in depth-first first-visit
      order (the paper's page-aware rule; right for engines whose block
      order is breadth-first-ish, like subtree clustering).
    - [Plan_order]: the plan's own block order is already the intended
      page order (vEB's recursive-subdivision order, weighted's
      hottest-first order); reordering it would destroy the property
      the engine just built. *)

type cold_order = Dfs_first_visit | Plan_order

type t = {
  name : string;  (** stable identifier: used in CLI, JSON, comparisons *)
  cold_order : cold_order;
  plan : Tree.t -> k:int -> Plan.t;
}

val subtree : t
(** The paper's subtree clustering; [Dfs_first_visit]. *)

val depth_first : t
(** The paper's depth-first clustering baseline: chunk the tree's
    depth-first preorder into consecutive [k]-node blocks
    ({!Plan.chunk}); [Dfs_first_visit]. *)

val veb : t
(** Recursive van Emde Boas subdivision ({!Veb}); [Plan_order]. *)

val weighted : t
(** Profile-weighted hot-path packing ({!Weighted}); [Plan_order]. *)

val builtins : t list
(** [subtree; depth_first; veb; weighted]. *)
