(** Emulation of a 1990s system [malloc]: 8-byte object headers, 8-byte
    alignment, and size-segregated LIFO free lists ("bins") over a bump
    wilderness, in the style of the Solaris and SVR4 allocators the
    paper's base case ran on.

    This is the paper's {e base case}: a placement-blind allocator whose
    layout is a consequence of allocation order and of bin reuse —
    freed objects of one structure are handed to whatever allocates that
    size next, which is precisely the locality-destroying behaviour
    cache-conscious placement repairs.  Bin metadata is kept out-of-band
    (in OCaml) but headers and padding consume simulated address space,
    so layouts — the thing under study — are faithful. *)

type t

val create : Memsim.Machine.t -> t
(** 16 pages are drawn from the machine's reservation broker whenever
    the wilderness runs dry. *)

val allocator : t -> Allocator.t
(** The {!Allocator.t} view (ignores hints). *)

val alloc : t -> int -> Memsim.Addr.t
val free : t -> Memsim.Addr.t -> unit

val free_bytes : t -> int
(** Total bytes currently sitting in bins (for tests). *)

val check_invariants : t -> unit
(** Asserts live allocations and binned slots are disjoint address
    ranges.  @raise Failure when an invariant is broken. *)
