(** A bump (arena) allocator: monotonic carving from page-granular
    regions, no free.  Used as the target arena for [ccmorph] copies and
    wherever a benchmark wants pure allocation-order layout with no
    header overhead. *)

type t

val create : ?name:string -> Memsim.Machine.t -> t

val alloc : t -> ?align:int -> int -> Memsim.Addr.t
(** Default alignment 4 bytes. *)

val allocator : t -> Allocator.t
(** [free] is a no-op in this view. *)

val used_bytes : t -> int
