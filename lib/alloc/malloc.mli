(** Emulation of a 1990s system [malloc]: 8-byte object headers, 8-byte
    alignment, and size-segregated LIFO free lists ("bins") over a bump
    wilderness, in the style of the Solaris and SVR4 allocators the
    paper's base case ran on.

    This is the paper's {e base case}: a placement-blind allocator whose
    layout is a consequence of allocation order and of bin reuse —
    freed objects of one structure are handed to whatever allocates that
    size next, which is precisely the locality-destroying behaviour
    cache-conscious placement repairs.  Each object's header word holds
    its carved size, which [free] reads back, so headers and padding
    consume simulated address space and layouts — the thing under
    study — are faithful.  The bins' heads and the set of live payloads
    (an {!Live_set}) are kept out-of-band, in OCaml; neither holds
    anything per object but a bit. *)

type t

val create : Memsim.Machine.t -> t
(** 16 pages are drawn from the machine's reservation broker whenever
    the wilderness runs dry. *)

val allocator : t -> Allocator.t
(** The {!Allocator.t} view (ignores hints). *)

val alloc : t -> int -> Memsim.Addr.t

val free : t -> Memsim.Addr.t -> unit
(** Returns the chunk to the bin of the size its header word holds
    (read untimed).
    @raise Invalid_argument when the address is not a live payload (a
    double free, an interior or misaligned pointer), or when its header
    holds no size this allocator carved (it was written over). *)

val free_bytes : t -> int
(** Total bytes currently sitting in bins (for tests). *)

val check_invariants : t -> unit
(** Asserts live allocations and binned slots are disjoint address
    ranges.  @raise Failure when an invariant is broken. *)
