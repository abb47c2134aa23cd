(** Layout plans: the partition of nodes into cache blocks that every
    engine produces and [Ccmorph] lays out.

    A plan is a node order cut into blocks.  Both constructors check
    the partition as they fill [block_of_node], so every plan that
    exists is valid: each node in exactly one block, no block empty or
    larger than the [k] it was built for. *)

type t = private {
  order : int array;  (** every node once, block by block, in layout order *)
  starts : int array;
      (** [nblocks + 1] slots: block [j] is
          [order.(starts.(j)) .. order.(starts.(j+1) - 1)] *)
  block_of_node : int array;  (** the block holding each node *)
}

val nblocks : t -> int

val of_segments :
  k:int -> n:int -> order:int array -> starts:int array -> nblocks:int -> t
(** The plan whose block [j] is [order.(starts.(j)) ..
    order.(starts.(j+1) - 1)]: the form engines that emit nodes into one
    flat array produce.  [order] is not copied; [starts] is cut to
    [nblocks + 1] slots.
    @raise Invalid_argument if [k < 1], a node is out of [0 .. n-1],
    placed twice or never placed, or a block is empty or holds more than
    [k] nodes. *)

val chunk : n:int -> order:int array -> k:int -> t
(** Chunk an explicit node order into consecutive [k]-element blocks.
    @raise Invalid_argument as {!of_segments}, so also if [order] is not
    a permutation of [0 .. n-1]. *)
