(** Layout plans: the partition of nodes into cache blocks that every
    engine produces and [Ccmorph] lays out. *)

type t = {
  blocks : int array array;
      (** [blocks.(j)] lists the node ids sharing block [j], in layout
          order.  Every node appears in exactly one block. *)
  block_of_node : int array;  (** inverse mapping *)
}

val of_segments :
  n:int -> order:int array -> starts:int array -> nblocks:int -> t
(** Block [j] is [order.(starts.(j)) .. order.(starts.(j+1) - 1)]: the
    form engines that emit nodes into one flat array produce.  Trusts
    the caller on partition validity (engines walk validated trees); use
    {!check} to audit the result. *)

val chunk : n:int -> order:int array -> k:int -> t
(** Chunk an explicit node order into consecutive [k]-element blocks.
    @raise Invalid_argument if [k < 1] or [order] is not a permutation
    of [0..n-1]. *)

val check : t -> n:int -> k:int -> unit
(** [Layout.check_plan]: every node in exactly one block, no block
    larger than [k] or empty, inverse map consistent.
    @raise Failure describing the first violation. *)
