(** Cache coloring (paper Section 2.2, Figure 2).

    A cache with [C] sets is partitioned into a hot region of [p] sets and
    a cold region of the remaining [C - p] sets.  Frequently accessed
    structure elements are mapped {e uniquely} into the hot region so they
    never conflict with each other and are never evicted by cold elements.

    The virtual address space is laid out as repeating stripes of
    [C * b] bytes; within each stripe the bytes that map to hot sets are
    reserved for hot elements and the rest for cold ones.  Per the paper,
    the gaps that implement this correspond to multiples of the
    virtual-memory page size, which constrains [p] (and the region's
    start).

    The hot region may be placed anywhere in the cache ([hot_first_set]),
    so several structures can be colored into {e disjoint} regions — the
    "interactions among different structures" extension the paper leaves
    as future work. *)

type t = private {
  l2 : Memsim.Cache_config.t;
  page_bytes : int;
  hot_first_set : int;  (** first set of the hot region *)
  hot_sets : int;  (** [p] *)
}

val v :
  ?color_frac:float -> ?hot_first_set:int -> l2:Memsim.Cache_config.t ->
  page_bytes:int -> unit -> t
(** [color_frac] (default [0.5], the paper's [Color_const] choice in
    Section 5.4) is the fraction of cache sets dedicated to the hot
    region; [hot_first_set] (default [0]) must be a page multiple.  [p]
    is rounded down so both regions are whole multiples of the page size
    (at least one page each).
    @raise Invalid_argument if the cache stripe is smaller than two
    pages, or [hot_first_set] is not a page-aligned set index inside the
    cache. *)

val hot_capacity_blocks : t -> int
(** How many distinct blocks fit in the hot region without self-conflict:
    [p * associativity]. *)

val stripe_bytes : t -> int
(** [C * b]: the address-space period of the coloring pattern. *)

val hot_stripe_bytes : t -> int
(** [p * b]. *)

val region_of_addr : t -> Memsim.Addr.t -> [ `Hot | `Cold ]
(** Which region an address's cache set falls in. *)

(** {1 Colored arenas}

    A pair of block-granular arenas that carve hot and cold blocks out of
    shared [C * b]-aligned address stripes. *)

type arenas

val arenas : Memsim.Machine.t -> t -> arenas

val next_hot_block : arenas -> Memsim.Addr.t
(** Address of the next unused hot cache block (block-aligned). *)

val next_cold_block : arenas -> Memsim.Addr.t
