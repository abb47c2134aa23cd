(** A two-level blocking cache hierarchy with latency accounting and a
    non-blocking prefetch engine.

    Mirrors the machines in the paper: Section 4.1's Sun Ultraserver E5000
    (16 KB direct-mapped L1 / 16 B blocks, 1 MB direct-mapped L2 / 64 B
    blocks, 1 / 6 / 64 cycle costs) and Table 1's RSIM configuration
    (16 KB direct-mapped L1, 256 KB 2-way L2, 128 B lines, 1 / 9 / 60).

    Prefetches are modelled with MSHR-style overlap: a prefetch registers
    the target block as {e pending} with a completion time [now +
    t_mL1 + t_mL2]; a demand access that arrives before completion stalls
    only for the remaining cycles.  A prefetch therefore hides latency
    only when issued far enough ahead — the property that separates
    greedy pointer-chase prefetching from cache-conscious placement in
    Figure 7.  At most [mshrs] prefetches are outstanding; further ones
    are dropped (Table 1: 8 MSHRs). *)

type latencies = {
  l1_hit : int;  (** [t_h]: cycles for an L1 hit *)
  l1_miss : int;  (** [t_mL1]: additional cycles for an L1 miss that hits L2 *)
  l2_miss : int;  (** [t_mL2]: additional cycles for an L2 miss *)
}

type t

val create :
  ?tlb:Tlb.config -> ?hw_prefetch:bool -> ?mshrs:int -> l1:Cache_config.t ->
  l2:Cache_config.t -> latencies:latencies -> unit -> t
(** [hw_prefetch] enables a tagged next-line prefetcher: every demand L2
    miss for block [B] also schedules block [B+1] (our stand-in for the
    paper's "prefetch all loads and stores in the reorder buffer"
    hardware scheme — both help sequential access and are nearly useless
    for dependent pointer chasing; see DESIGN.md).  [mshrs] (default 8)
    bounds outstanding prefetches. *)

val l1 : t -> Cache.t
val l2 : t -> Cache.t
val tlb : t -> Tlb.t option
val latencies : t -> latencies
val hw_prefetch_enabled : t -> bool

val access : t -> now:int -> write:bool -> Addr.t -> int
(** Simulate a demand access at absolute cycle [now]; returns total
    cycles including the L1 hit time.  A pending prefetch of the target
    block reduces the stall to the cycles still outstanding.

    An L1-resident block filter (the L1's MRU memo) short-circuits the
    two-level walk on repeated same-block accesses. *)

val access_after_probe : t -> now:int -> write:bool -> Addr.t -> int
(** The two-level walk of {!access}, without the TLB and without the L1
    filter probe, for callers that have just probed {!Cache.mru_hit} on
    the L1 and missed: with the TLB translation and the probe, this is
    {!access}, split so that {!Machine} can probe the filter itself. *)

val access_range : t -> now:int -> write:bool -> Addr.t -> bytes:int -> int
(** Like {!access} but touches every L1 block overlapped by
    [\[a, a+bytes)]; returns summed cycles.  Objects that straddle block
    boundaries pay for both blocks — the effect [ccmalloc]'s
    never-straddle padding is designed to avoid. *)

val prefetch : t -> now:int -> Addr.t -> unit
(** Software prefetch: schedule the L2 block holding [a] to arrive at
    [now + t_mL1 + t_mL2].  No-op if the block is already cached or
    pending; dropped when all MSHRs are busy. *)

val pending_prefetches : t -> int
(** Currently outstanding prefetches (for tests). *)

val would_miss_l2 : t -> Addr.t -> bool
(** True if a demand access to [a] right now would miss in both levels
    (pending prefetches are ignored). *)

val clear : t -> unit
(** Cold-start both levels, the TLB, and the prefetch queue. *)

val reset_stats : t -> unit

val hw_prefetches : t -> int
(** Number of next-line prefetches scheduled by the hardware engine. *)

val sw_prefetches_dropped : t -> int
(** Prefetches dropped because all MSHRs were busy. *)

val prefetches_consumed : t -> int * int
(** [(count, cycles_saved)]: pending fills absorbed by demand accesses
    and the total latency they hid (telemetry for prefetch studies). *)

type stats = {
  h_l1 : Cache.stats;
  h_l2 : Cache.stats;
  h_tlb : Tlb.stats option;
  h_hw_prefetches : int;
  h_sw_prefetches_dropped : int;
  h_prefetches_consumed : int;
  h_prefetch_cycles_saved : int;
}

val stats : t -> stats
(** One snapshot of {e every} counter the hierarchy keeps (cache stats
    are copied, not aliased).  This is the record the telemetry layer
    serializes; {!pp_stats} prints all of it, including the fields the
    per-figure tables elide (writebacks, prefetch installs, TLB). *)

val pp_stats : Format.formatter -> t -> unit

val pp : Format.formatter -> t -> unit
