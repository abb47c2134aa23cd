(** Abstract trees (forests) for the layout engines, in breadth-first
    form.

    Nodes are integers [0 .. n-1], numbered breadth-first: the roots are
    [0 .. nroots-1] and the children of node [v], left to right, are
    [first_kid.(v) .. first_kid.(v+1) - 1].  This is the numbering
    [Ccmorph]'s discovery produces, so a morph hands its arrays over
    as they are.

    Both constructors check the tree, so engines walk the arrays without
    checks of their own. *)

type t = private {
  n : int;
  nroots : int;
  first_kid : int array;
      (** at least [n + 1] slots; slots past [n] are never read *)
}

val of_bfs : n:int -> nroots:int -> first_kid:int array -> t
(** Wrap breadth-first arrays (not copied; the caller must not mutate
    them).  One pass that allocates nothing checks that
    [first_kid.(0) = nroots], [first_kid.(n) = n], [first_kid] never
    decreases, and every child comes after its parent
    ([first_kid.(v) > v]).  Then every id in [nroots .. n-1] has exactly
    one parent, and that parent is lower, so the arrays are a forest.
    @raise Invalid_argument naming the first check that fails. *)

val of_kids :
  n:int -> kids:(int -> int list) -> roots:int list -> t * int array
(** A forest over arbitrary ids [0 .. n-1], renumbered breadth-first:
    returns the tree and [ids], where [ids.(i)] is the caller's id of
    node [i].  [kids] is called once per reachable node.
    @raise Invalid_argument if an id is out of range ("node id out of
    range"), an id is reached twice among roots and children ("node
    reached twice": a DAG, or a cycle through a root), or some id is
    unreachable from the roots. *)

val dfs_order : t -> int array
(** Depth-first preorder over the forest (roots in order, children
    left-to-right). *)

val heights : t -> int array
(** [heights.(v)] is the height of the subtree rooted at [v], counting
    nodes: a leaf has height 1.  One sweep from the last node back. *)
