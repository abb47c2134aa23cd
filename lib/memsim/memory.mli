(** The simulated physical address space.

    A byte-addressable store behind a page table, indexed by page
    number: each entry is a [Bytes.t] of [page_bytes] bytes once
    anything has touched that page, and a shared zero-length page
    before that; the table grows on demand.  This is where every
    simulated structure's fields actually live; pointer fields hold
    {!Addr.t} values.  [Memory] itself is *untimed* — cycle and cache
    accounting happen in {!Machine}, which wraps each load/store here
    with a {!Hierarchy.access}.

    Simulated addresses are 32-bit: every accessor raises
    [Invalid_argument] naming the address for [a < 0] or [a >= 2^32]. *)

type t

val create : page_bytes:int -> t
(** [page_bytes] (a power of two) is the machine's page size. *)

val load8 : t -> Addr.t -> int
val store8 : t -> Addr.t -> int -> unit

val load32 : t -> Addr.t -> int
(** Loads a 32-bit little-endian value as a non-negative int (0..2^32-1).
    32 bits is the simulated word/pointer size: the paper's structures are
    C structs with 4-byte pointers and ints.  Every accessor materializes
    the pages it touches, reads included. *)

val store32 : t -> Addr.t -> int -> unit
(** Stores the low 32 bits of the argument. *)

val load32s : t -> Addr.t -> int
(** Like {!load32} but sign-extends, for signed fields. *)

val load64 : t -> Addr.t -> int64
val store64 : t -> Addr.t -> int64 -> unit

val loadf : t -> Addr.t -> float
(** IEEE-754 double stored in 8 bytes. *)

val storef : t -> Addr.t -> float -> unit

val load_bytes : t -> Addr.t -> Bytes.t -> pos:int -> len:int -> unit
(** [load_bytes t a buf ~pos ~len] copies the [len] simulated bytes at
    [a] into [buf] at [pos] (untimed), one [Bytes.blit] per page.
    @raise Invalid_argument if [pos]/[len] do not fit [buf]. *)

val store_bytes : t -> Addr.t -> Bytes.t -> pos:int -> len:int -> unit
(** [store_bytes t a buf ~pos ~len] copies [len] bytes of [buf] from
    [pos] into simulated memory at [a] (untimed); the inverse of
    {!load_bytes}.  [ccmorph] snapshots and writes elements with these
    two and charges the accesses separately. *)

val fill_zero : t -> Addr.t -> bytes:int -> unit
(** Zeroes [bytes] bytes at [a], one [Bytes.fill] per page. *)

val pages_materialized : t -> int
(** Number of pages materialized so far (footprint telemetry). *)
