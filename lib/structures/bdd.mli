(** A reduced ordered binary decision diagram (ROBDD) package over the
    simulated heap — the substrate for the VIS macrobenchmark proxy
    (paper Section 4.3: "the fundamental data structure used in VIS is
    ... represented by Binary Decision Diagrams").

    Nodes are 16 bytes:
    {v
      offset 0  : var   (level; terminals use a large sentinel)
      offset 4  : low   (else-child pointer)
      offset 8  : high  (then-child pointer)
      offset 12 : next  (unique-table hash chain)
    v}

    Both the unique table (bucket-head array + intrusive chains) and the
    apply computed cache (direct-mapped, 16-byte entries) live in
    simulated memory, so hash probes are timed accesses — this is what
    makes VIS's working set cache-hostile and is exactly the traffic
    [ccmalloc] improves.  New nodes are allocated with a hint (the low
    child when internal, else the chain's current head), so running the
    manager over a [Ccmalloc] allocator co-locates nodes with the
    children that [apply] will visit next.

    BDDs are DAGs, so [ccmorph] cannot be used — the paper makes the
    same observation and uses [ccmalloc]'s new-block strategy. *)

type t
type node = Memsim.Addr.t

val create :
  ?alloc:Alloc.Allocator.t -> ?unique_bits:int -> ?cache_bits:int ->
  nvars:int -> Memsim.Machine.t -> t
(** A manager for variables [0 .. nvars-1].  [unique_bits] (default 14)
    and [cache_bits] (default 12) size the unique table and computed
    cache at [2^bits] entries.  Without [alloc], nodes come from a bump
    arena. *)

val machine : t -> Memsim.Machine.t
val nvars : t -> int
val zero : t -> node
val one : t -> node
val var : t -> int -> node
(** The function [x_i].  @raise Invalid_argument if out of range. *)

val nvar : t -> int -> node
(** The function [¬x_i]. *)

val mk : t -> var:int -> low:node -> high:node -> node
(** Hash-consing constructor; returns [low] when [low == high], else the
    canonical node.  Timed.  @raise Invalid_argument if [var] is not
    smaller than both children's vars (ordering violation). *)

val band : t -> node -> node -> node
val bor : t -> node -> node -> node
val bxor : t -> node -> node -> node
val bnot : t -> node -> node
val biff : t -> node -> node -> node
(** XNOR: [biff f g = bnot (bxor f g)]. *)

val ite : t -> node -> node -> node -> node
(** If-then-else, built from the binary operators. *)

val restrict : t -> node -> var:int -> value:bool -> node
(** Cofactor: the function with [var] fixed to [value].  Timed node
    traffic; memoized per call. *)

val exists : t -> node -> (int -> bool) -> node
(** Existential quantification over every variable [v] with [pred v].
    Timed node traffic; memoized per call. *)

val relabel : t -> node -> (int -> int) -> node
(** Rebuild with variables renamed by a strictly monotone mapping.
    @raise Invalid_argument if the mapping is not monotone on the
    variables present. *)

val eval : t -> node -> (int -> bool) -> bool
(** Untimed evaluation oracle. *)

val sat_count : t -> node -> float
(** Untimed number of satisfying assignments over all [nvars]
    variables. *)

val node_count : t -> node -> int
(** Untimed count of distinct internal nodes reachable from [node]. *)

val live_nodes : t -> int
(** Internal nodes currently in the unique table. *)

val gc : t -> roots:node list -> int
(** Mark-and-sweep garbage collection: nodes unreachable from [roots]
    (terminals are always implicitly live) are unlinked from the unique
    table and returned to the allocator, and the computed cache is
    cleared (its entries may reference dead nodes).  Returns the number
    of nodes freed.  All traversal and table-maintenance traffic is
    timed.

    Callers must treat any node handle not reachable from [roots] as
    dangling afterwards.  Reclaimed slots are recycled by subsequent
    allocations — under a hint-blind allocator this progressively
    scrambles node placement (the aging heap the paper's VIS numbers
    reflect), while [Ccmalloc] keeps newly created nodes co-located with
    their hint. *)

val unique_table_probes : t -> int
(** Telemetry for locality experiments: total probes of the unique
    table. *)

val cache_lookups : t -> int
val cache_hits : t -> int
