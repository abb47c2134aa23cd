(** The paper's subtree clustering (Section 2.1) behind the engine
    interface: pack each block with a cluster root plus descendants in
    breadth-first order, up to [k] nodes; children that do not fit seed
    later clusters; consecutive under-full clusters merge.  Produces
    bit-identical plans to the pre-refactor [Clustering.subtree]. *)

val plan : Tree.t -> k:int -> Plan.t
(** @raise Invalid_argument if [k < 1] ({!Tree} rejects malformed trees
    when they are built). *)
