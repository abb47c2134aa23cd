(** The layout-engine interface.

    An engine turns an abstract tree into a {!Plan.t} for block capacity
    [k], plus a declaration of how its cold (uncolored) blocks should be
    assigned to pages, which [Ccmorph] follows:

    - [Dfs_first_visit]: emit cold blocks in depth-first first-visit
      order (the paper's page-aware rule; both built-in engines use it).
    - [Plan_order]: emit cold blocks in the plan's own block order.  No
      built-in engine declares it; overriding an engine's [cold_order]
      with it measures what the page-aware rule contributes. *)

type cold_order = Dfs_first_visit | Plan_order

type t = {
  name : string;  (** stable identifier: used in JSON and comparisons *)
  cold_order : cold_order;
  plan : Tree.t -> k:int -> Plan.t;
}

val subtree : t
(** The paper's subtree clustering; [Dfs_first_visit]. *)

val depth_first : t
(** The paper's depth-first clustering baseline: chunk the tree's
    depth-first preorder into consecutive [k]-node blocks
    ({!Plan.chunk}); [Dfs_first_visit]. *)

val builtins : t list
(** [subtree; depth_first]: the paper's two schemes (Section 2.1). *)
