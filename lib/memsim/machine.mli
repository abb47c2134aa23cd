(** The simulated machine: memory + cache hierarchy + cycle accounting,
    plus the address-space broker every allocator draws from.

    All benchmark kernels and data structures are written against this
    API.  A timed [load32] is "one retired load": 1 busy cycle plus
    (latency - 1) load-stall cycles.  Untimed variants ([uload32], ...)
    bypass the caches and cost model; they exist for building verification
    oracles and test fixtures, never for measured kernels. *)

type t

val create : Config.t -> t
val config : t -> Config.t
val memory : t -> Memory.t
val hierarchy : t -> Hierarchy.t
val cost : t -> Cost.t

val page_bytes : t -> int
val l2_block_bytes : t -> int
val l1_block_bytes : t -> int

(** {1 Address-space reservation}

    A single bump pointer hands out disjoint regions; allocators carve
    objects out of the regions they reserve.  Address 0 is never used. *)

val reserve : t -> bytes:int -> align:int -> Addr.t
(** Reserve [bytes] bytes aligned to [align] (power of two). *)

val reserve_pages : t -> int -> Addr.t
(** Reserve [n] whole pages, page-aligned. *)

val reserved_bytes : t -> int
(** High-water mark of the reservation pointer (footprint telemetry). *)

(** {1 Timed operations} *)

val load32 : t -> Addr.t -> int
val store32 : t -> Addr.t -> int -> unit
val load32s : t -> Addr.t -> int
val loadf : t -> Addr.t -> float
val storef : t -> Addr.t -> float -> unit

val load_ptr : t -> Addr.t -> Addr.t
(** Synonym for {!load32}; documents intent at call sites. *)

val store_ptr : t -> Addr.t -> Addr.t -> unit

val busy : t -> int -> unit
(** Charge [n] busy (compute) cycles. *)

val prefetch : t -> Addr.t -> unit
(** Software prefetch: charges 1 issue cycle and installs the block in
    both cache levels (no-op on null addresses, so kernels can prefetch
    child pointers unconditionally). *)

val touch : t -> ?write:bool -> Addr.t -> bytes:int -> unit
(** Timed access to every L1 block overlapping the byte range; used for
    object-granularity operations such as [ccmorph]'s copies. *)

(** {1 Untimed operations (oracles and fixtures only)} *)

val uload32 : t -> Addr.t -> int
val ustore32 : t -> Addr.t -> int -> unit
val uload32s : t -> Addr.t -> int
val uloadf : t -> Addr.t -> float
val ustoref : t -> Addr.t -> float -> unit

(** {1 Tracing}

    Observers are called on every timed access with [(is_write,
    address)]; untimed accesses are not observed.  Any number of
    observers may subscribe, so several profilers can watch one run
    without displacing each other.  An access costs one option match
    when nothing is attached. *)

type subscription

val subscribe : t -> (bool -> Addr.t -> unit) -> subscription
(** Add an observer; observers run in subscription order. *)

val unsubscribe : t -> subscription -> unit

(** {1 Measurement} *)

val cycles : t -> int
(** Total cycles accumulated so far. *)

val snapshot : t -> Cost.snapshot

val reset_measurement : t -> unit
(** Zero the cost counters and cache/TLB statistics.  Cache *contents*
    are preserved (steady-state measurement after warm-up). *)

val cold_start : t -> unit
(** Additionally empty the caches and TLB. *)
