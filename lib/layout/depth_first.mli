(** The paper's depth-first clustering baseline behind the engine
    interface: chunk the depth-first preorder into consecutive
    [k]-element blocks ({!Plan.chunk} over the tree's depth-first
    order). *)

val plan : Tree.t -> k:int -> Plan.t
(** @raise Invalid_argument if [k < 1] ({!Tree} rejects malformed trees
    when they are built). *)
