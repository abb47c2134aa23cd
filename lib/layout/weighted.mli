(** Profile-weighted hierarchical layout (Alstrup-style hot-path
    packing).

    Consumes the tree's per-node access weights (e.g. counts from
    [Obs.Profile.Counts]) and greedily packs the highest-weight
    parent–child chains: each block starts from the globally hottest
    unplaced frontier node and follows its hottest child while room
    remains, so the traversal a profile says is likely pays one block
    fetch for a whole hot path — the greedy variant of Alstrup et al.'s
    weighted multilevel layout.  Colder siblings join a frontier heap
    and head later blocks, giving a hottest-first block emission order
    that composes with {!Ccmorph}'s coloring hot-prefix.

    Each node's weight is read once, into an unboxed array.
    Deterministic: ties break toward the lower node id.  Without
    weights every node weighs [1.0] and the engine degenerates to
    leftmost-chain packing. *)

val plan : Tree.t -> k:int -> Plan.t
(** @raise Invalid_argument if [k < 1] ({!Tree} rejects malformed trees
    when they are built). *)
