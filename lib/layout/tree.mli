(** Abstract trees (forests) for the layout engines, in flat form.

    Nodes are integers [0 .. n-1].  The children of node [v], left to
    right, are [kid.(kid_start.(v)) .. kid.(kid_start.(v+1) - 1)];
    [roots] lists the forest roots in order.  The optional [weight] gives
    a per-node access weight (e.g. profiled access counts) that
    weight-aware engines may consult; engines that ignore weights never
    call it.

    The constructors validate once, so engines walk the arrays without
    checks of their own and every engine rejects a malformed tree with
    the same exception: every id is in range, appears at most once as a
    root or child, and is reachable from the roots. *)

type t = private {
  n : int;
  kid_start : int array;  (** length [n + 1]; [kid_start.(0) = 0] *)
  kid : int array;  (** every node's children, concatenated in node order *)
  roots : int array;
  weight : (int -> float) option;
}

val of_arrays :
  ?weight:(int -> float) ->
  n:int ->
  kid_start:int array ->
  kid:int array ->
  roots:int array ->
  unit ->
  t
(** Wrap flat arrays (not copied; the caller must not mutate them).
    @raise Invalid_argument if [kid_start] does not index [kid], an id
    is out of range ("node id out of range"), an id appears twice among
    roots and children ("node reached twice": a DAG, or a cycle through
    a root), or some id is unreachable from the roots. *)

val v :
  ?weight:(int -> float) ->
  n:int ->
  kids:(int -> int list) ->
  roots:int list ->
  unit ->
  t
(** Convenience constructor from a children function; builds the flat
    arrays and validates like {!of_arrays}. *)

val dfs_order : t -> int array
(** Depth-first preorder over the forest (roots in order, children
    left-to-right). *)

val heights : t -> int array
(** [heights.(v)] is the height of the subtree rooted at [v], counting
    nodes: a leaf has height 1.  Runs one preorder plus one
    reverse-preorder sweep. *)
