(** Locality profilers that subscribe to {!Memsim.Machine.subscribe}.

    These measure, on a live run, the quantities the paper's Section 5
    analytic framework takes as inputs:

    - {!Reuse}: an LRU-stack {e reuse-distance histogram} at cache-block
      granularity.  The distance of an access is the number of {e other}
      distinct blocks touched since the previous access to its block
      (infinite on first touch), so the histogram's tail at capacity [C]
      blocks is the miss count of a [C]-block fully-associative LRU
      cache — a whole miss-rate-versus-capacity curve from one run,
      the measured counterpart of the model's reuse term [R_s] (the
      ablations' [miss-curves] row measures direct-mapped caches the
      same way, with caches subscribed to the run).
      O(log b) per access and O(b) memory for [b] distinct blocks: a
      Fenwick tree over a compacted clock holds one flag per block, at
      its latest access, and renumbers the flags 1..b in place when the
      clock reaches the tree's capacity (kept at least [4b]).
    - {!Spatial}: per-block utilization — which words of each block were
      ever touched — the measured counterpart of the model's
      spatial-locality factor [K] (how much of a block fill is used).
    - {!Occupancy}: accesses per cache set, split into the coloring hot
      region and the cold rest, to show Section 2.2's coloring actually
      confining cold data.

    Profilers observe the address stream only; they never perturb the
    simulated caches or the cycle accounting.  Each access is attributed
    to the block/set of its {e starting} address (multi-block [touch]
    ranges count once), the granularity of every machine observer. *)

module Reuse : sig
  type t

  val create : block_bytes:int -> t

  val on_access : t -> bool -> Memsim.Addr.t -> unit
  (** Tracer-compatible: [(is_write, address)]. *)

  val accesses : t -> int

  val cold_misses : t -> int
  (** First touches (infinite distance). *)

  val distinct_blocks : t -> int

  val histogram : t -> (int * int) list
  (** (distance, count), ascending; cold misses excluded. *)

  val binned : t -> (int * int * int) list
  (** Power-of-two bins [(lo, hi, count)] over finite distances. *)

  val implied_misses : t -> blocks:int -> int
  (** Accesses a fully-associative LRU cache of [blocks] blocks would
      miss: cold misses plus finite distances [>= blocks]. *)

  val implied_miss_rate : t -> blocks:int -> float
  (** [implied_misses / accesses]: misses per traced reference. *)

  val to_json : t -> Json.t
  val pp : Format.formatter -> t -> unit
end

module Spatial : sig
  type t

  val create : ?word_bytes:int -> block_bytes:int -> unit -> t
  (** [word_bytes] defaults to 4 (the simulated word); a block may hold
      at most [Sys.int_size] (63) words, one bit of an [int] mask each,
      so with both sizes powers of two at most 32.
      @raise Invalid_argument otherwise. *)

  val on_access : t -> bool -> Memsim.Addr.t -> unit
  val blocks_touched : t -> int

  val avg_words_touched : t -> float
  (** Mean distinct words ever touched per touched block. *)

  val utilization : t -> float
  (** Fraction of all bytes of touched blocks that were themselves
      touched — 1.0 means every fill was fully used. *)

  val words_histogram : t -> (int * int) list
  (** (words touched, block count), ascending. *)

  val to_json : t -> Json.t
  val pp : Format.formatter -> t -> unit
end

module Occupancy : sig
  type t

  val create : ?hot_first_set:int -> ?hot_sets:int -> Memsim.Cache_config.t -> t
  (** Defaults mirror {!Ccsl.Ccmorph.default_params}: hot region =
      first half of the sets starting at set 0. *)

  val on_access : t -> bool -> Memsim.Addr.t -> unit
  val accesses : t -> int
  val set_counts : t -> int array
  val hot_accesses : t -> int

  val hot_share : t -> float
  (** Fraction of accesses landing in the hot region. *)

  val to_json : t -> Json.t
end

(** {1 Combined profiler} *)

type t = {
  reuse : Reuse.t;
  spatial : Spatial.t;
  occupancy : Occupancy.t;
}

val create : ?hot_first_set:int -> l2:Memsim.Cache_config.t -> unit -> t
(** All three profilers at the L2's geometry; the occupancy profiler's
    hot region is half the sets (the paper's Color_const). *)

val for_machine : ?hot_first_set:int -> Memsim.Machine.t -> t

val tracer : t -> bool -> Memsim.Addr.t -> unit
val attach : t -> Memsim.Machine.t -> Memsim.Machine.subscription
(** Subscribe {!tracer} to the machine's access stream. *)

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
