(** Balanced binary search trees over the simulated heap — the subject of
    the paper's microbenchmark (Figure 5) and model validation
    (Figure 10).

    Node layout ([elem_bytes >= 12], default 20 bytes as in the paper's
    2,097,151-node / 40 MB tree):
    {v
      offset 0 : key   (signed 32-bit)
      offset 4 : left  (pointer)
      offset 8 : right (pointer)
      rest     : padding / satellite data
    v} *)

type layout =
  | Random of Workload.Rng.t
      (** nodes allocated in random order: the paper's "randomly
          clustered" naive tree *)
  | Depth_first  (** preorder allocation: "depth-first clustered" *)
  | Van_emde_boas
      (** recursive height-halving layout ([Layout.Veb.order] over the
          tree's shape) — the classic hand-designed
          ("CC design" in the paper's Table 3) cache-oblivious tree,
          good for every block size simultaneously but unaware of cache
          {e capacity}, so it cannot pin a hot region the way coloring
          does *)

type t = {
  m : Memsim.Machine.t;
  mutable root : Memsim.Addr.t;
  n : int;
  elem_bytes : int;
}

val default_elem_bytes : int
(** 20, the paper's node size ([k = ⌊64/20⌋ = 3] nodes per L2 block). *)

val build :
  ?elem_bytes:int -> ?alloc:Alloc.Allocator.t -> Memsim.Machine.t ->
  layout -> keys:int array -> t
(** Build a balanced tree over [keys] (sorted ascending, no duplicates)
    with the given allocation-order layout.  Without [alloc], nodes come
    from a fresh bump arena (no header overhead, so layout is purely the
    chosen order).  Construction uses untimed stores; measured phases
    should begin with {!Memsim.Machine.reset_measurement}.
    @raise Invalid_argument if keys are not sorted/unique. *)

val of_root : Memsim.Machine.t -> elem_bytes:int -> n:int -> Memsim.Addr.t -> t
(** Re-wrap a root produced by [Ccmorph.morph]. *)

val search : t -> int -> bool
(** Timed random search, the microbenchmark's pointer-path access. *)

val insert : t -> ?alloc:Alloc.Allocator.t -> int -> bool
(** Timed unbalanced leaf insertion (the tree is no longer guaranteed
    balanced afterwards); duplicates are ignored.  New nodes come from
    [alloc] or a private bump arena.  Returns whether a node was added.
    Used by the dynamic-workload extension experiments. *)

val depth_of : t -> int -> int
(** Timed; number of nodes on the search path for a key (hit or miss). *)

val desc : elem_bytes:int -> Ccsl.Ccmorph.desc
(** Morph description (kid offsets 4 and 8). *)

val mem_oracle : t -> int -> bool
(** Untimed search used as a test oracle. *)

val to_sorted_list : t -> int list
(** Untimed in-order traversal (tests). *)
