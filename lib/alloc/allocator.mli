(** The allocator interface shared by the system-malloc emulation, the
    bump arenas, and [Ccmalloc].

    Allocators are first-class records so benchmark kernels can be written
    once and run under any placement policy — exactly how the paper swaps
    [malloc] for [ccmalloc] in the Olden sources.  The [hint] argument is
    [ccmalloc]'s extra parameter (a pointer to an element likely to be
    accessed contemporaneously); hint-blind allocators ignore it. *)

type stats = {
  allocations : int;
  frees : int;
  bytes_requested : int;  (** sum of requested sizes *)
  bytes_reserved : int;  (** address space consumed, incl. padding/headers *)
}

type t = {
  name : string;
  alloc : ?hint:Memsim.Addr.t -> ?site:string -> int -> Memsim.Addr.t;
      (** [alloc ?hint ?site bytes] returns the address of a fresh,
          zeroed, 4-byte-aligned region of [bytes] bytes.  [site] is a
          stable label for the allocation site (e.g. ["treeadd.node"]);
          allocators themselves ignore it, but diagnostic wrappers such
          as the placement sanitizer's shadow heap aggregate per-site statistics from
          it.  @raise Invalid_argument if [bytes <= 0]. *)
  free : Memsim.Addr.t -> unit;
      (** Return a region to the allocator.  Arena-style allocators treat
          this as a no-op. *)
  owns : Memsim.Addr.t -> bool;
      (** Is this address a live allocation of this allocator?  Callers
          use it to avoid freeing objects that have been migrated away by
          [Ccmorph] (whose copies live in arenas, not in any allocator). *)
  stats : unit -> stats;
}
