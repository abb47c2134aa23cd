(** Chained hash table over the simulated heap — Olden [mst]'s primary
    data structure ("an array of singly linked lists").

    The bucket-head array lives in simulated memory (one pointer per
    bucket) so the bucket probe itself is a timed access, and entries are
    12-byte singly-linked nodes:
    {v
      offset 0 : next  (pointer)
      offset 4 : key   (signed 32-bit)
      offset 8 : value (signed 32-bit)
    v}

    Insertion passes the chain predecessor (or the bucket-head cell's
    page) as the [ccmalloc] hint, following the paper's guidance that a
    suitable hint is found "by local examination of the code surrounding
    the allocation statement". *)

type t = {
  m : Memsim.Machine.t;
  alloc : Alloc.Allocator.t;
  buckets : int;  (** power of two *)
  table : Memsim.Addr.t;  (** base of the bucket-head array *)
  mutable entries : int;
}

val entry_bytes : int

val create :
  Memsim.Machine.t -> alloc:Alloc.Allocator.t -> buckets:int -> t
(** @raise Invalid_argument unless [buckets] is a positive power of 2. *)

val hash : t -> int -> int
(** The multiplicative hash used for bucket selection (exposed for
    tests). *)

val insert : t -> key:int -> value:int -> unit
(** Timed: walk the chain; update in place if [key] exists, else append a
    new entry at the chain tail with its predecessor as hint. *)

val find_or : t -> int -> default:int -> int
(** Timed lookup: the value stored under the key, or [default] when the
    key is absent.  It returns no option, so a lookup allocates nothing
    on the host. *)

val remove : t -> int -> bool
(** Timed; true if the key was present.  Frees the entry. *)

val bucket_heads : t -> Memsim.Addr.t array
(** Untimed snapshot of all chain heads (input to
    [Ccmorph.morph_forest]). *)

val set_bucket_heads : t -> Memsim.Addr.t array -> unit
(** Untimed rewrite of the head array after a morph. *)

val find_oracle : t -> int -> int option
(** Untimed lookup for tests. *)
