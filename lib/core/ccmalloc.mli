(** [ccmalloc]: cache-conscious heap allocation (paper Section 3.2).

    A drop-in allocator that takes one extra argument — a pointer to an
    existing structure element likely to be accessed contemporaneously
    with the new one — and tries to place the new element in the same L2
    cache block as the hint.  When the hint's block is full, a placement
    {!strategy} picks another block {e on the same virtual-memory page}
    (same-page placement shrinks the working set, helps the TLB, and
    guarantees the two items cannot conflict in the cache).

    Unlike [ccmorph], misuse affects only performance, never correctness.
    Objects never straddle cache-block boundaries; the resulting internal
    fragmentation is why the paper's null-hint control experiment runs
    2–6% {e slower} than system [malloc] (§4.4) — a behaviour this
    implementation reproduces rather than papers over. *)

type strategy =
  | Closest
      (** use the free block nearest the hint's block on the page *)
  | New_block
      (** use an untouched block, optimistically reserving its remainder
          for future allocations *)
  | First_fit
      (** scan the page's blocks from the start for the first with room *)

val strategy_name : strategy -> string

type t

val create : ?strategy:strategy -> Memsim.Machine.t -> t
(** The block size is the machine's L2 block size (the paper's choice:
    L1 blocks at 16 B are too small to co-locate anything).  Default
    strategy is {!New_block}, the paper's consistent winner. *)

val alloc : t -> ?hint:Memsim.Addr.t -> int -> Memsim.Addr.t
(** Allocate [bytes] (zeroed).  As with the system malloc, each object
    carries an 8-byte size header and 8-byte alignment, so ccmalloc and
    malloc layouts differ only in placement, never density — which is
    what makes the §4.4 control experiment meaningful.  Objects whose
    header + payload exceed a cache block go on whole-block spans and
    are never co-located.  A null or absent [hint] falls back to
    hint-blind sequential placement within the allocator's own pages. *)

val free : t -> Memsim.Addr.t -> unit
(** Returns the object's bytes to its block's free space if it was the
    most recent allocation in that block (cheap LIFO reclamation);
    otherwise the slot joins a reuse pool {e segregated by page origin}:
    slots freed on pages that ever received hinted allocations are
    recycled only by hinted allocations (overflow spill), never by
    hint-less ones — a cold object dropped mid-structure would silently
    undo co-location.  The paper's benchmarks never rely on [ccmalloc]
    reuse. *)

val allocator : t -> Alloc.Allocator.t

val manages : t -> Memsim.Addr.t -> bool
(** Does [addr] fall on a ccmalloc-managed page?  This is exactly the
    membership test [alloc] applies to incoming hints (a hint outside a
    managed page is counted in [c_hint_unmanaged] and treated as none).
    Span pages are managed: a hint pointing at a live span object counts
    as hinted but spills to an overflow page ([c_strategy_fallbacks]),
    since block-level placement beside an oversized object is
    impossible.  Diagnostic tools use [manages] to scope shadow-heap
    checks to memory this allocator disciplines; it agrees with the
    allocator's own [owns] for every live payload, span or not. *)

val pages_opened : t -> int
val blocks_opened : t -> int
(** Number of distinct cache blocks that have received at least one
    object — together with {!pages_opened} this is the §4.4
    memory-overhead signal separating [New_block] from the others. *)

val same_block_ratio : t -> float
(** Fraction of hinted allocations co-located in the hint's block. *)

val same_page_ratio : t -> float
(** Fraction of hinted allocations placed on the hint's page. *)

type counters = {
  c_allocations : int;
  c_frees : int;
  c_bytes_requested : int;
  c_hinted : int;  (** allocations that arrived with a usable hint *)
  c_hinted_same_block : int;  (** ... co-located in the hint's block *)
  c_hinted_same_page : int;  (** ... placed somewhere on the hint's page *)
  c_hint_unmanaged : int;
      (** hints pointing outside ccmalloc-managed pages (treated as none) *)
  c_strategy_fallbacks : int;
      (** hinted allocations the placement strategy could not fit on the
          hint's page, spilling to an overflow page *)
  c_reuse_hits : int;  (** allocations served from freed slots *)
  c_span_allocs : int;  (** objects wider than a block (whole-block spans) *)
  c_pages_opened : int;
  c_blocks_opened : int;
}
(** Placement telemetry: every path an allocation can take, in one
    snapshot.  [c_hinted = c_hinted_same_block + (same-page strategy
    placements) + c_strategy_fallbacks]. *)

val counters : t -> counters
val pp_counters : Format.formatter -> counters -> unit
