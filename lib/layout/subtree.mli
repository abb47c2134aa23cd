(** The paper's subtree clustering (Section 2.1) behind the engine
    interface: pack each block with a cluster root plus descendants in
    breadth-first order, up to [k] nodes; children that do not fit seed
    later clusters; consecutive under-full clusters merge.  Blocks are
    emitted in breadth-first order of cluster roots, so blocks nearer the
    structure root come first (the order [Ccmorph]'s coloring relies
    on); on a complete binary tree with [k = 3] each block holds a parent
    and its two children. *)

val plan : Tree.t -> k:int -> Plan.t
(** @raise Invalid_argument if [k < 1] ({!Tree} rejects malformed trees
    when they are built). *)
