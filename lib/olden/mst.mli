(** Olden [mst]: minimum spanning tree over a graph whose adjacency is
    stored in per-vertex chained hash tables (Table 2: "array of singly
    linked lists", 512 nodes).

    The graph is built at program start-up and never changes; the MST
    computation (Prim's algorithm with the Olden "BlueRule" linear scan)
    then hammers the hash chains with lookups.  As in the paper: chains
    are short, there is no locality between lists, so incorrect placement
    is punished; [ccmorph] (forest morph over every chain) and
    [ccmalloc]'s new-block strategy win big.

    The checksum is the MST weight, verified in the test suite against
    a plain OCaml Prim's over {!iter_edges}. *)

type params = {
  vertices : int;  (** paper: 512 *)
  degree : int;  (** out-degree per vertex before symmetrization *)
  seed : int;
}

val default_params : params
(** 512 vertices, degree 8 — the paper's input scale. *)

val paper_params : params

val run :
  ?params:params -> ?measure_whole:bool -> ?ctx:Common.ctx ->
  Common.placement -> Common.result
(** By default measures the MST computation only (graph construction and
    one-time reorganization are fast-forwarded start-up). *)

val iter_edges : params -> (int -> int -> int -> unit) -> unit
(** [iter_edges params f] calls [f i j w] once for each undirected edge
    [(i, j)] of weight [w] of the generated graph, in the order [run]
    inserts them.  It allocates nothing per edge on the host heap. *)
