(** The simulated physical address space.

    A sparse, growable, byte-addressable store backed by fixed-size chunks.
    This is where every simulated structure's fields actually live; pointer
    fields hold {!Addr.t} values.  [Memory] itself is *untimed* — cycle and
    cache accounting happen in {!Machine}, which wraps each load/store
    here with a {!Hierarchy.access}. *)

type t

val create : ?chunk_bytes:int -> unit -> t
(** [chunk_bytes] (default 64 KiB, power of two) sets backing granularity. *)

val load8 : t -> Addr.t -> int
val store8 : t -> Addr.t -> int -> unit

val load32 : t -> Addr.t -> int
(** Loads a 32-bit little-endian value as a non-negative int (0..2^32-1).
    32 bits is the simulated word/pointer size: the paper's structures are
    C structs with 4-byte pointers and ints. *)

val store32 : t -> Addr.t -> int -> unit
(** Stores the low 32 bits of the argument. *)

val load32s : t -> Addr.t -> int
(** Like {!load32} but sign-extends, for signed fields. *)

val load32_fast : t -> Addr.t -> int
val store32_fast : t -> Addr.t -> int -> unit

val load32s_fast : t -> Addr.t -> int
(** The allocation-free arms of {!load32}/{!store32}/{!load32s} directly,
    skipping the {!Fastpath} flag read — for callers (i.e. {!Machine})
    that already dispatched on it.  Values are identical to the
    reference arms on every input. *)

val load64 : t -> Addr.t -> int64
val store64 : t -> Addr.t -> int64 -> unit

val loadf : t -> Addr.t -> float
(** IEEE-754 double stored in 8 bytes. *)

val storef : t -> Addr.t -> float -> unit

val load_bytes : t -> Addr.t -> Bytes.t -> pos:int -> len:int -> unit
(** [load_bytes t a buf ~pos ~len] copies the [len] simulated bytes at
    [a] into [buf] at [pos] (untimed).  A range that straddles a chunk
    boundary is copied piecewise; chunks it reaches are materialized,
    as by {!load8}.
    @raise Invalid_argument if [pos]/[len] do not fit [buf]. *)

val store_bytes : t -> Addr.t -> Bytes.t -> pos:int -> len:int -> unit
(** [store_bytes t a buf ~pos ~len] copies [len] bytes of [buf] from
    [pos] into simulated memory at [a] (untimed); the inverse of
    {!load_bytes}.  [ccmorph] snapshots and writes elements with these
    two and charges the accesses separately. *)

val blit : t -> src:Addr.t -> dst:Addr.t -> bytes:int -> unit
(** Raw copy (untimed), through a host buffer: overlapping ranges copy
    as [memmove] does. *)

val fill_zero : t -> Addr.t -> bytes:int -> unit

val chunks_allocated : t -> int
(** Number of backing chunks materialized so far (footprint telemetry). *)

val chunk_bytes : t -> int
