(** The set of an allocator's live payload addresses: one bit per
    8-byte granule, in one bitset per page, behind a directory indexed
    by [addr lsr page_shift] (the layout of {!Memsim.Memory}'s page
    table).  A page's bitset is created when the first payload on it is
    added; every other index holds a shared empty bitset.

    It answers [owns] and [free]'s "is this a live payload?" for
    {!Malloc} and [Ccmalloc], whose sizes live in the simulated heap's
    header words.  Membership costs one shift, two array reads and a bit
    test; adds and removes allocate nothing once the page's bitset
    exists. *)

type t

val create : page_bytes:int -> t
(** [page_bytes] (a power of two, at least 64) is the machine's page
    size. *)

val mem : t -> Memsim.Addr.t -> bool
(** Is the address a member?  False, without raising, for an address
    that is not 8-aligned, is negative, or lies on a page no member was
    ever added to. *)

val add : t -> Memsim.Addr.t -> unit
(** @raise Invalid_argument when the address is negative or not
    8-aligned. *)

val remove : t -> Memsim.Addr.t -> unit
(** Drop a member; a no-op for an address that is not one. *)

val iter : (Memsim.Addr.t -> unit) -> t -> unit
(** The members in ascending order. *)
