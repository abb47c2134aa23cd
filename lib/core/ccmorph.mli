(** [ccmorph]: transparent cache-conscious structure reorganization
    (paper Section 3.1).

    Given a pointer to the root of a tree-like structure, a description of
    where its pointer fields live (the moral equivalent of the paper's
    [next_node] function — we need field offsets rather than a bare
    traversal function because the copied nodes' pointers must be
    rewritten), and cache parameters, [morph] copies the structure into a
    contiguous set of cache blocks, applying subtree clustering
    (Section 2.1) and optionally coloring (Section 2.2).

    Reorganization is appropriate for read-mostly structures; the caller
    guarantees no external pointers into the middle of the structure (the
    old copy is left untouched, so misuse cannot corrupt it, but updates
    to the old copy are not reflected in the new one).  "Liberal" trees
    whose elements carry a parent (or predecessor) pointer are supported
    via [parent_offset].

    All traversal, copy, and pointer-rewrite memory traffic is *timed* —
    reorganization overhead lands in the same cycle counters the
    benchmarks report, as in the paper's RADIANCE and health results.
    Each element is read once, by one timed whole-element read during
    discovery; the child and parent words that discovery follows and
    the rewrite replaces come from that snapshot, and the copy phase
    only writes.

    Discovery numbers the elements breadth-first, the {!Layout.Tree}
    form every engine takes, so its arrays reach the engine uncopied.
    Every morph checks its plan: {!Layout.Plan}'s constructors reject an
    element placed twice or never, and a block that is empty or holds
    more elements than fit in an L2 block, as the engine builds the
    plan and before anything is reserved or copied. *)

type desc = {
  elem_bytes : int;  (** size of one element, bytes *)
  kid_offsets : int array;
      (** byte offsets of child/successor pointers.  Every pointer slot,
          kids and parent, is a 4-byte word inside [elem_bytes], and no
          two slots overlap. *)
  parent_offset : int option;
      (** byte offset of a parent/predecessor pointer, if any *)
  kid_filter : (int -> bool) option;
      (** When a child slot can hold a tagged non-pointer value (e.g. the
          octree's inline leaf payloads), [kid_filter w] decides whether
          the loaded word [w] is a pointer to follow and rewrite.  Null
          slots are always skipped.  [None] means every non-null slot is
          a pointer. *)
}

val plain_desc : elem_bytes:int -> kid_offsets:int array -> desc
(** Convenience: no parent pointer, no kid filter. *)

type cluster_scheme =
  | Subtree  (** the paper's scheme: pack k-node subtrees per block *)
  | Depth_first  (** baseline: chunk a depth-first traversal *)
  | Engine of Layout.Engine.t
      (** a layout engine given explicitly; [Subtree] and [Depth_first]
          are aliases for [Engine Layout.Engine.subtree] and
          [Engine Layout.Engine.depth_first] *)

type params = {
  cluster : cluster_scheme;
  color : bool;  (** apply coloring on top of clustering *)
  color_frac : float;  (** the paper's [Color_const]; default 0.5 *)
  color_first_set : int;
      (** first cache set of the hot region (page-aligned); lets several
          structures be colored into disjoint regions *)
}

val default_params : params
(** [Subtree] clustering with coloring, [color_frac = 0.5],
    [color_first_set = 0].  The order of the cold blocks
    is the engine's own [Layout.Engine.cold_order]; to measure the
    page-aware rule's TLB contribution, morph with
    [Engine { Layout.Engine.subtree with cold_order = Plan_order }]. *)

type result = {
  new_root : Memsim.Addr.t;
  new_roots : Memsim.Addr.t array;  (** for forest morphs; [[|new_root|]] else *)
  nodes : int;
  blocks_used : int;
  hot_blocks : int;  (** blocks placed in the colored hot region *)
  bytes_copied : int;
  pages_used : int;  (** distinct VM pages holding the new layout *)
}

val morph :
  ?params:params ->
  Memsim.Machine.t -> desc -> root:Memsim.Addr.t -> result
(** Reorganize the structure reachable from [root].  A parent/predecessor
    pointer that leads {e outside} the morphed set (morphing a subtree of
    a larger structure, or a word into the middle of an element) is
    rewritten to null rather than left dangling into the abandoned copy;
    [kid_filter] is honored for the parent word just as for child slots.
    @raise Invalid_argument if
    - [elem_bytes] exceeds the L2 block size or is below 4;
    - the pointer slots of [desc] (kids and parent) are not disjoint
      4-byte words inside [elem_bytes] (before any timed access);
    - the structure is not tree-shaped: an element reachable twice, or a
      root given twice (when discovery reaches it);
    - an element, root or child, does not lie wholly below
      {!Memsim.Machine.reserved_bytes} (when discovery reaches it);
    - a parent word points at an element of the morphed set other than
      the element's discoverer (its breadth-first parent), or a root's
      parent word points at any element of the set.  This is checked
      after discovery and before anything is reserved or copied;
    - the engine's plan is not a partition of the elements into blocks
      of at most [l2_block_bytes / elem_bytes] (a faulty engine). *)

val morph_forest :
  ?params:params ->
  Memsim.Machine.t -> desc -> roots:Memsim.Addr.t array -> result
(** Reorganize several disjoint structures (e.g. every chain of a hash
    table) into one shared layout, so short chains pack together.  Null
    roots are preserved as null in [new_roots].
    @raise Invalid_argument in the cases {!morph} lists. *)

(** {1 Morph observations}

    Diagnostic passes (the placement sanitizer, perfbench's morph
    counters) need to see every reorganization a program performs —
    which machine it ran on, with which description and parameters, and
    what layout came out — without the benchmark kernels knowing they
    are being watched.  Observers are called after
    each successful non-empty [morph]/[morph_forest]; they must not morph
    structures themselves. *)

type observation = {
  obs_machine : Memsim.Machine.t;
  obs_desc : desc;
  obs_params : params;
  obs_result : result;
}

type observer_id

val add_observer : (observation -> unit) -> observer_id
(** Register an observer; observers run in registration order. *)

val remove_observer : observer_id -> unit
