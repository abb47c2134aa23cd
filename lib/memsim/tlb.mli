(** A small translation lookaside buffer.

    Modelled as a set-associative cache of page numbers with exact
    per-set LRU replacement; a translation costs O(1) host time, hit or
    miss, whatever the associativity.  The paper's Section 5.4 notes that
    TLB effects (which its analytic model omits) contribute to the
    model's systematic ~15% underestimate; the TLB here lets experiments
    quantify that component. *)

type t

type config = {
  entries : int;  (** total entries; power of two *)
  assoc : int;  (** ways; [entries/assoc] sets *)
  page_bytes : int;
  miss_penalty : int;  (** cycles to walk the page table *)
}

val default_config : page_bytes:int -> config
(** 64 entries, fully associative, 40-cycle miss penalty. *)

val create : config -> t
val config : t -> config

val access : t -> Addr.t -> int
(** Translate the page holding an address; returns the penalty cycles
    incurred ([0] on hit, [miss_penalty] on miss). *)

val hits : t -> int
val misses : t -> int

type stats = { t_hits : int; t_misses : int }
(** Snapshot form, mirroring {!Cache.stats} for uniform reporting. *)

val stats : t -> stats
val stats_miss_rate : stats -> float
(** [misses / (hits + misses)]; [0.] when idle. *)

val pp_stats : Format.formatter -> stats -> unit

val clear : t -> unit
val reset_stats : t -> unit
