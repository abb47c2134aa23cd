(** Olden [treeadd]: build a binary tree, then recursively sum the values
    in its nodes (Table 2: 256 K nodes, 4 MB; 16-byte nodes).

    Nodes are created in the dominant (preorder) traversal order, so, as
    the paper notes, even the base allocation yields a decent layout and
    cache-conscious placement buys a modest 10–20%.

    Node layout: value@0, left@4, right@8, pad@12 (16 bytes). *)

type params = {
  levels : int;  (** tree has [2^levels - 1] nodes; paper scale is 18 *)
  passes : int;  (** how many times the sum traversal runs (paper: 1) *)
}

val default_params : params
(** [levels = 16], [passes = 1] — the CI-friendly scale; use
    [paper_params] for Table 2's input. *)

val paper_params : params

val node_bytes : int
val nodes_of : params -> int

val run :
  ?params:params -> ?measure_whole:bool -> ?ctx:Common.ctx ->
  Common.placement -> Common.result
(** Execute the benchmark (build, optional morph, sum) under a placement.
    By default only the compute kernel is measured — construction and
    one-time reorganization are treated as fast-forwarded start-up, as in
    an RSIM simulation (caches stay warm).  [measure_whole] includes
    start-up, which is what the §4.4 null-hint control experiment needs.
    The checksum is the tree sum and is placement-invariant. *)

val expected_sum : params -> int
(** Closed form of the checksum (node [i] holds value 1, so the sum is
    the node count). *)
