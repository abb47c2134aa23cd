(** Placement sanitizer: a shadow heap validating layout invariants
    against the live trace.

    The shadow heap mirrors two kinds of regions the placement layer
    disciplines:

    - {e heap objects}, learned by interposing on an
      {!Alloc.Allocator.t} ({!note_alloc}/{!note_free}), and
    - {e morphed elements}, learned from {!Ccsl.Ccmorph} observations
      ({!note_morph}), which walks the new layout untimed and registers
      every element.

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
      non-negativity — see {!check_counters}. *)

type t

val create : Memsim.Machine.t -> t

val set_ccmalloc : t -> Ccsl.Ccmalloc.t -> unit
(** Scope out-of-bounds checking to this allocator's managed pages. *)

(** {1 Event feed} *)

val note_alloc : t -> Memsim.Addr.t -> int -> unit
(** [note_alloc t payload bytes]: a live object is born. *)

val note_free : t -> Memsim.Addr.t -> unit

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
    of the same structure supersede each other. *)

(** {1 Access checking} *)

val record_access : t -> write:bool -> Memsim.Addr.t -> unit
(** Check one traced access: record an out-of-bounds violation when it
    lands in a disciplined region without hitting a live object or
    element.  Addresses outside every disciplined region are ignored. *)

(** {1 Results} *)

val check_counters : Ccsl.Ccmalloc.counters -> Diag.t list
(** Pure check of the counter identity; also used on fabricated snapshots
    by the seeded-fault fixtures. *)

val diags : t -> Diag.t list
(** All sanitizer findings so far (morph-time findings plus accumulated
    out-of-bounds records, at most one per offending cache block). *)
