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
    what makes the §4.4 control experiment meaningful.  A null or absent
    [hint], or one outside the allocator's own pages, falls back to
    hint-blind sequential placement within those pages.
    @raise Invalid_argument when [bytes <= 0], or when the 8-byte header
    plus the aligned payload exceed an L2 cache block (an object ccmalloc
    could not co-locate with anything).  Either check runs before any
    cycle is charged or any counter moves. *)

val free : t -> Memsim.Addr.t -> unit
(** Finds the object's page with one directory index and returns the
    object's bytes to its block's free space if it was the
    most recent allocation in that block (cheap LIFO reclamation);
    otherwise the slot joins a reuse pool {e segregated by page origin}:
    slots freed on pages that ever received hinted allocations are
    recycled only by hinted allocations (overflow spill), never by
    hint-less ones — a cold object dropped mid-structure would silently
    undo co-location.  The paper's benchmarks never rely on [ccmalloc]
    reuse.
    @raise Invalid_argument when [addr] is not a live payload (a double
    free, an interior pointer). *)

val allocator : t -> Alloc.Allocator.t

val manages : t -> Memsim.Addr.t -> bool
(** Does [addr] fall on a page ccmalloc opened?  One index into the
    allocator's page directory, and exactly the membership test [alloc]
    applies to incoming hints (a hint outside those pages is counted in
    [c_hint_unmanaged] and treated as none).  Diagnostic tools use
    [manages] to scope shadow-heap checks to memory this allocator
    disciplines; it holds for every live payload the allocator [owns]. *)

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
  c_pages_opened : int;
  c_blocks_opened : int;
      (** distinct cache blocks that ever received an object — with
          [c_pages_opened], the §4.4 memory-overhead signal separating
          [New_block] from the others *)
}
(** Placement telemetry: every path an allocation can take, in one
    snapshot, and the allocator's only telemetry view.  [c_hinted = c_hinted_same_block + (same-page strategy
    placements) + c_strategy_fallbacks]. *)

val counters : t -> counters
val pp_counters : Format.formatter -> counters -> unit
