(** Placement sanitizer: a shadow heap validating layout invariants
    against the live trace, plus a per-site count of allocation hints
    that point outside the cache-conscious allocator's pages.

    Typical use ([Harness.Whole_program] runs every arm this way):

    {[
      let san = Shadow.create machine in
      Shadow.set_ccmalloc san cc;
      let alloc = Shadow.wrap_allocator san ctx.alloc in
      Shadow.attach san;
      (* ... run the benchmark against [alloc] ... *)
      Shadow.detach san;
      let diags = Shadow.finalize san
    ]}

    The shadow heap mirrors two kinds of regions the placement layer
    disciplines:

    - {e heap objects}, learned by interposing on an
      {!Alloc.Allocator.t} ({!note_alloc}/{!note_free}), and
    - {e morphed elements}, learned from {!Ccsl.Ccmorph} observations
      ({!note_morph}), which walks the new layout untimed and registers
      every element.

    Both feed one page-indexed table with a live bit per simulated byte,
    so a timed access inside a live region costs one page index and one
    bit test.  The table answers whether {e any} live interval covers an
    address.  That agrees with a payload-keyed interval map (is the
    address inside the interval with the nearest base at or below it?)
    whenever live intervals are disjoint, which they always are here:
    every allocator and every morph carves its pages out of
    {!Memsim.Machine.reserve}, which never hands out an address twice.
    The two differ only for overlapping live intervals, which only a
    broken allocator or a malformed morph could register.

    Against these it checks, per rule id:

    - [placement/out-of-bounds] (Error): a timed access inside a
      ccmalloc-managed page or a morph-owned cache block that hits no
      live object/element — an overflow into a size header, block free
      space, or a freed slot.  Addresses outside all disciplined regions
      are ignored (other allocators, e.g. bump-arena tables, are not the
      sanitizer's business).
    - [placement/elem-straddles-block] (Error): a morphed element
      crossing an L2 block boundary, violating the [ccmorph] packing
      contract (Section 3.1).
    - [placement/hot-outside-range] (Error): a colored layout whose hot
      blocks do not sit in the configured hot set range
      [[color_first_set, color_first_set + p)] — checked by recomputing
      the coloring geometry from the declared parameters and comparing
      the layout's hot-range block population against the morph's own
      accounting ({!Ccsl.Ccmorph.result.hot_blocks} and the region's
      self-conflict capacity).
    - [placement/hot-regions-overlap] (Error): two {e distinct}
      concurrently-colored structures claiming intersecting hot set
      ranges.  Re-morphing the same structure (same [struct_id], as
      health does every [morph_interval] steps) supersedes its previous
      claim instead of conflicting with it.
    - [placement/counter-identity] (Error): a {!Ccsl.Ccmalloc.counters}
      snapshot violating the documented identity
      [c_hinted = c_hinted_same_page + c_strategy_fallbacks] (with
      [c_hinted_same_block <= c_hinted_same_page <= c_hinted]) or basic
      non-negativity — see {!check_counters}.
    - [hint/unmanaged] (Warn): a site whose non-null hints point outside
      the registered ccmalloc's pages, so each degrades to an unhinted
      allocation (the paper's Section 3.2 misuse mode). *)

type t

val create : Memsim.Machine.t -> t

val set_ccmalloc : t -> Ccsl.Ccmalloc.t -> unit
(** Scope out-of-bounds checks to this allocator's pages, judge hint
    managedness against it, and check its counter identity at
    {!finalize}. *)

val wrap_allocator : t -> Alloc.Allocator.t -> Alloc.Allocator.t
(** An allocator that forwards to the wrapped one and reports every
    allocation and free to the shadow heap, and every non-null hint to
    the per-site hint count. *)

val attach : t -> unit
(** Subscribe to the machine's timed-access feed and to global
    {!Ccsl.Ccmorph} observations (filtered to this machine). *)

val detach : t -> unit

(** {1 Event feed} *)

val note_alloc : t -> Memsim.Addr.t -> int -> unit
(** [note_alloc t payload bytes]: a live object is born.  At a payload
    that is already live it replaces the old object. *)

val note_free : t -> Memsim.Addr.t -> unit
(** The object at this payload dies; a payload that is not live is
    ignored. *)

val note_morph :
  t ->
  ?struct_id:string ->
  params:Ccsl.Ccmorph.params ->
  desc:Ccsl.Ccmorph.desc ->
  Ccsl.Ccmorph.result ->
  unit
(** Register a reorganized layout: walks the new structure (untimed),
    registers every element, and runs the straddle/coloring checks.
    [struct_id] defaults to a stable digest of [desc], so repeated morphs
    of the same structure supersede each other.  {!attach} feeds this
    from every [Ccmorph.morph]; fixtures that fabricate layouts call it
    by hand. *)

val live : t -> Memsim.Addr.t -> bool
(** Does a live object or a registered element cover this address?  The
    per-access test behind [placement/out-of-bounds]. *)

(** {1 Results} *)

val check_counters : Ccsl.Ccmalloc.counters -> Diag.t list
(** Pure check of the counter identity; also used on fabricated snapshots
    by the seeded-fault fixtures. *)

val finalize : t -> Diag.t list
(** All findings, sorted by {!Diag.order}: morph-time findings,
    out-of-bounds records (at most one per offending cache block), and,
    when an allocator was registered, its counter identity and
    [hint/unmanaged].  Can be called at any time, before or after
    {!detach}. *)
