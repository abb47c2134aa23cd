(** The tree microbenchmark (paper Section 4.2, Figure 5) and the model
    validation experiment (Section 5.4, Figure 10).

    A large balanced binary search tree is searched for uniformly random
    keys; average search cost is tracked as the number of repeated
    searches grows.  Four tree organizations compete, on the Section 4.1
    UltraSPARC E5000 machine (16 KB DM L1 / 16 B, 1 MB DM L2 / 64 B,
    1/6/64 cycles):

    - [Random_tree]: nodes at random heap addresses (naive base case);
    - [Dfs_tree]: nodes allocated in depth-first order;
    - [B_tree]: an in-core B-tree, colored, bulk-loaded at 70% fill;
    - [C_tree]: a "transparent C-tree" — the random tree reorganized by
      [ccmorph] with subtree clustering and coloring.

    The paper's node size is 20 bytes (2,097,151 nodes = 40 MB), giving
    [k = 3] nodes per 64-byte L2 block. *)

(** {1 One tree-search arm} *)

val build :
  ?alloc:Alloc.Allocator.t ->
  ?morph:Ccsl.Ccmorph.params ->
  Memsim.Machine.t ->
  Structures.Bst.layout ->
  keys:int array ->
  Structures.Bst.t
(** A balanced tree of paper-sized nodes over [keys]
    ({!Structures.Bst.build}: nodes from [alloc], or a bump arena, in
    [layout] order) on the machine, which carries the config; with
    [morph], then reorganized by {!morph}. *)

val morph :
  ?params:Ccsl.Ccmorph.params ->
  Structures.Bst.t ->
  Structures.Bst.t * Ccsl.Ccmorph.result
(** Reorganize the tree with [Ccmorph.morph] and re-wrap its new root. *)

val measure : Memsim.Machine.t -> searches:int -> (int -> unit) -> int
(** [measure m ~searches search] is the steady-state measurement: cold
    caches, a warm-up of [searches/4] calls [search i] ([i] from 1),
    {!Memsim.Machine.reset_measurement}, then [searches] measured calls.
    Returns the measured cycles. *)

(** {1 Figures 5 and 10} *)

type variant = Random_tree | Dfs_tree | B_tree | C_tree

val variant_name : variant -> string
val all_variants : variant list

type point = {
  searches : int;  (** cumulative searches so far *)
  avg_cycles : float;  (** cumulative average cycles per search *)
}

type series = {
  variant : variant;
  points : point list;
  total_cycles : int;
  l2_miss_rate : float;  (** over the whole run *)
}

val fig5 :
  ?seed:int -> keys:int -> searches:int -> checkpoints:int list -> variant ->
  series
(** One variant's Figure 5 series: build it over a
    [keys]-element key set, warm nothing (cold caches, as in the paper's
    transient curves), then perform [searches] random searches recording
    the running average at each checkpoint.
    @raise Invalid_argument if checkpoints are not increasing or exceed
    [searches]. *)

type fig10_point = {
  tree_size : int;
  predicted : float;  (** Model.Ctree prediction (Figure 9/10) *)
  actual : float;  (** measured naive-cycles / C-tree-cycles *)
}

val fig10 : ?seed:int -> searches:int -> int -> fig10_point
(** One tree size of the Section 5.4 validation: measure the speedup
    of the C-tree over the random tree for [searches] random searches
    (steady state: a warm-up pass of [searches/4] precedes measurement),
    and compare against the analytic model's prediction. *)
