(** One level of a blocking cache with true LRU replacement.

    The simulator tracks tags only; data always lives in {!Memory}.  Every
    operation works on byte addresses and internally maps them to
    (set, tag) pairs using the level's {!Cache_config}. *)

type t

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable read_misses : int;
  mutable write_misses : int;
  mutable evictions : int;
  mutable writebacks : int;  (** dirty evictions (write-back policy only) *)
  mutable prefetch_installs : int;
}

val create : Cache_config.t -> t
val config : t -> Cache_config.t

val access : t -> write:bool -> Addr.t -> bool
(** [access t ~write a] simulates a demand reference to the block holding
    [a].  Returns [true] on hit.  On a miss the block is installed,
    evicting the LRU way of its set.  Statistics are updated.

    The lookup is an allocation-free scan (none at all when the cache
    is direct-mapped) fronted by an MRU block filter — a memo of the
    last line that served a hit or fill, so repeated same-block accesses
    (the common case for clustered layouts) skip the associative scan.
    It is exactly [mru_hit t ~write a || lookup t ~write a]. *)

val mru_hit : t -> write:bool -> Addr.t -> bool
(** MRU filter probe for {!Hierarchy} and {!Machine}: if the filter
    proves the block holding [a] is resident, account a demand hit
    exactly as {!access} would and return [true]; otherwise do
    {e nothing} and return [false] (the caller falls back to
    {!lookup}). *)

val lookup : t -> write:bool -> Addr.t -> bool
(** {!access} without the MRU filter probe, for callers that have just
    probed with {!mru_hit} and missed: the probe would miss again, so it
    is skipped. *)

val mru_filter_hits : t -> int
(** Accesses served by the MRU filter without an associative scan
    (telemetry; not part of {!stats}). *)

val probe : t -> Addr.t -> bool
(** Non-intrusive lookup: does not update LRU state or statistics. *)

val install : t -> ?prefetch:bool -> Addr.t -> unit
(** Install the block holding [a] (if absent) without counting a demand
    access; used for prefetches and for upper-level fills.  When
    [prefetch] is set (default [false]) the install is counted in
    [prefetch_installs]. *)

val invalidate : t -> Addr.t -> unit
(** Drop the block holding [a] if present (no writeback accounting). *)

val clear : t -> unit
(** Empty the cache (cold start) without touching statistics. *)

val stats : t -> stats
(** The live statistics record (mutated in place by operations). *)

val reset_stats : t -> unit

val accesses : stats -> int
(** [reads + writes]. *)

val misses : stats -> int
(** [read_misses + write_misses]. *)

val miss_rate : stats -> float
(** [misses / accesses]; [0.] when no accesses have occurred. *)

val resident_blocks : t -> int
(** Number of valid blocks currently cached (for tests/introspection). *)

val set_occupancy : t -> int -> int
(** [set_occupancy t s] is the number of valid ways in set [s]. *)

val pp_stats : Format.formatter -> stats -> unit
