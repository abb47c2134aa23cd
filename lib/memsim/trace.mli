(** Address-trace capture and replay.

    A trace records the (kind, address) stream of every timed access a
    {!Machine} performs.  Replaying the stream through other cache
    geometries answers "what if the cache were bigger / more associative
    / coarser-blocked?" without re-running the workload — the classic
    trace-driven-simulation workflow, and the experimental backbone of
    the miss-rate-versus-cache-size curves that complement the paper's
    analytic model (whose [R_s] depends on the cache size [c]). *)

type kind = Load | Store

type t
(** A growable in-memory trace. *)

val create : unit -> t
val length : t -> int

val record : t -> kind -> Addr.t -> unit
(** Append one event (the hook a {!Machine.subscribe} observer calls). *)

val iter : t -> (kind -> Addr.t -> unit) -> unit

type replay_result = {
  accesses : int;
  l1_misses : int;
  l2_misses : int;
  cycles : int;  (** using the supplied latencies, one access per event *)
}

val replay :
  t -> l1:Cache_config.t -> l2:Cache_config.t ->
  latencies:Hierarchy.latencies -> replay_result
(** Run the trace through a fresh two-level hierarchy (no TLB, no
    prefetching). *)

val miss_rate_curve :
  t -> block_bytes:int -> assoc:int -> capacities:int list ->
  (int * float) list
(** For each capacity (bytes), the miss rate of the trace on a
    single-level cache of that capacity with the given geometry —
    the "amortized miss rate" of the paper's framework, measured. *)
