(** The paper's depth-first clustering baseline behind the engine
    interface: chunk the depth-first preorder into consecutive
    [k]-element blocks.  Produces bit-identical plans to the
    pre-refactor [Clustering.linear] over [Ccmorph]'s dfs order. *)

val plan : Tree.t -> k:int -> Plan.t
(** @raise Invalid_argument if [k < 1] ({!Tree} rejects malformed trees
    when they are built). *)
