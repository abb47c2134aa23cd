type latencies = { l1_hit : int; l1_miss : int; l2_miss : int }

type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  tlb : Tlb.t option;
  lat : latencies;
  (* precomputed so the walk below the L1 makes no cross-module call
     but [Cache.access] on the L2 *)
  l2_hit_cycles : int;
  l2_miss_cycles : int;
  l2_block_mask : int;  (* [-block_bytes]: [a land mask] is a's block *)
  hw_prefetch : bool;
  mshrs : int;
  (* MSHR table as a fixed-size ring sized by [mshrs]: slot i holds an
     in-flight L2 fill (pend_blk.(i) = block base, -1 = free slot;
     pend_ready.(i) = absolute completion cycle).  [mshrs] is small
     (Table 1: 8), so linear scans beat any hashed structure and the
     table never allocates after creation. *)
  pend_blk : int array;
  pend_ready : int array;
  mutable pend_count : int;
  mutable hw_prefetches : int;
  mutable dropped : int;
  mutable consumed : int;  (* pending fills absorbed by demand accesses *)
  mutable saved : int;  (* latency cycles those fills hid *)
}

let create ?tlb ?(hw_prefetch = false) ?(mshrs = 8) ~l1 ~l2 ~latencies () =
  if l2.Cache_config.block_bytes < l1.Cache_config.block_bytes then
    invalid_arg "Hierarchy.create: L2 blocks must be >= L1 blocks";
  if mshrs < 1 then invalid_arg "Hierarchy.create: mshrs < 1";
  {
    l1 = Cache.create l1;
    l2 = Cache.create l2;
    tlb = Option.map Tlb.create tlb;
    lat = latencies;
    l2_hit_cycles = latencies.l1_hit + latencies.l1_miss;
    l2_miss_cycles = latencies.l1_hit + latencies.l1_miss + latencies.l2_miss;
    l2_block_mask = lnot (l2.Cache_config.block_bytes - 1);
    hw_prefetch;
    mshrs;
    pend_blk = Array.make mshrs (-1);
    pend_ready = Array.make mshrs 0;
    pend_count = 0;
    hw_prefetches = 0;
    dropped = 0;
    consumed = 0;
    saved = 0;
  }

let l1 t = t.l1
let l2 t = t.l2
let tlb t = t.tlb
let latencies t = t.lat
let hw_prefetch_enabled t = t.hw_prefetch

let fill_latency t = t.lat.l1_miss + t.lat.l2_miss

(* MSHR slot scans are top-level recursive functions: a local [let rec]
   would allocate its closure on every call without flambda. *)
let rec pend_find_from t blk i =
  if i = t.mshrs then -1
  else if Array.unsafe_get t.pend_blk i = blk then i
  else pend_find_from t blk (i + 1)

let pend_find t blk = if t.pend_count = 0 then -1 else pend_find_from t blk 0

let rec pend_add_from t blk ready i =
  if i = t.mshrs then assert false
  else if t.pend_blk.(i) = -1 then begin
    t.pend_blk.(i) <- blk;
    t.pend_ready.(i) <- ready;
    t.pend_count <- t.pend_count + 1
  end
  else pend_add_from t blk ready (i + 1)

let pend_add t blk ready = pend_add_from t blk ready 0

let pend_remove t i =
  t.pend_blk.(i) <- -1;
  t.pend_count <- t.pend_count - 1

let pend_clear t =
  Array.fill t.pend_blk 0 t.mshrs (-1);
  t.pend_count <- 0

(* Retire pending fills that have completed by [now], installing them in
   the L2 as the memory system would.  Slot order is deterministic. *)
let drain_completed t ~now =
  for i = 0 to t.mshrs - 1 do
    if t.pend_blk.(i) >= 0 && t.pend_ready.(i) <= now then begin
      Cache.install t.l2 ~prefetch:true t.pend_blk.(i);
      pend_remove t i
    end
  done

let schedule t ~now a =
  let blk = a land t.l2_block_mask in
  if (not (Cache.probe t.l2 blk)) && pend_find t blk < 0 then begin
    if t.pend_count >= t.mshrs then drain_completed t ~now;
    if t.pend_count >= t.mshrs then t.dropped <- t.dropped + 1
    else pend_add t blk (now + fill_latency t)
  end

let next_line_prefetch t ~now blk =
  let next = blk - t.l2_block_mask in
  if (not (Cache.probe t.l2 next)) && pend_find t next < 0 then begin
    if t.pend_count >= t.mshrs then drain_completed t ~now;
    if t.pend_count < t.mshrs then begin
      pend_add t next (now + fill_latency t);
      t.hw_prefetches <- t.hw_prefetches + 1
    end
  end

(* An L2 miss: an in-flight prefetch absorbs part of the latency. *)
let l2_miss t ~now blk =
  let slot = pend_find t blk in
  if slot >= 0 then begin
    let ready = t.pend_ready.(slot) in
    pend_remove t slot;
    (* never worse than a plain demand miss: the controller simply
       reissues the fetch if the prefetch is still far out *)
    let remaining = min (max 0 (ready - now)) t.lat.l2_miss in
    t.consumed <- t.consumed + 1;
    t.saved <- t.saved + (t.lat.l2_miss - remaining);
    t.l2_hit_cycles + remaining
  end
  else begin
    if t.hw_prefetch then next_line_prefetch t ~now blk;
    t.l2_miss_cycles
  end

(* The demand walk below an L1 miss, at absolute cycle [now + Cost.total
   clock].  The clock is read only on an L2 miss that can meet the MSHRs
   or the prefetcher, so {!Machine} passes its cost record instead of
   summing it on every miss.  The build compiles without [-opaque]
   (dune-workspace), so calls across modules are direct: an L2 hit costs
   one call, [Cache.access] on the L2. *)
let[@inline] walk_l2 t ~clock ~now ~write a =
  if Cache.access t.l2 ~write a then t.l2_hit_cycles
  else if t.pend_count = 0 && not t.hw_prefetch then t.l2_miss_cycles
  else l2_miss t ~now:(now + Cost.total clock) (a land t.l2_block_mask)

let l1_miss t clock ~write a = walk_l2 t ~clock ~now:0 ~write a

(* A clock that stays at zero, for callers that pass [now] themselves. *)
let stopped = Cost.create ()

let access t ~now ~write a =
  let tlb = match t.tlb with None -> 0 | Some tlb -> Tlb.access tlb a in
  if Cache.access t.l1 ~write a then tlb + t.lat.l1_hit
  else tlb + walk_l2 t ~clock:stopped ~now ~write a

let access_range t ~now ~write a ~bytes =
  if bytes <= 0 then invalid_arg "Hierarchy.access_range: bytes <= 0";
  let b1 = (Cache.config t.l1).Cache_config.block_bytes in
  let first = Addr.block_base a ~block_bytes:b1 in
  let last = Addr.block_base (a + bytes - 1) ~block_bytes:b1 in
  let total = ref 0 in
  let blk = ref first in
  while !blk <= last do
    total := !total + access t ~now:(now + !total) ~write !blk;
    blk := !blk + b1
  done;
  !total

let prefetch t ~now a = schedule t ~now a
let pending_prefetches t = t.pend_count

let clear t =
  Cache.clear t.l1;
  Cache.clear t.l2;
  pend_clear t;
  Option.iter Tlb.clear t.tlb

let reset_stats t =
  Cache.reset_stats t.l1;
  Cache.reset_stats t.l2;
  Option.iter Tlb.reset_stats t.tlb;
  (* measurement resets rebase the cycle clock; absolute ready times in
     the prefetch queue would be wildly stale, so drop them *)
  pend_clear t;
  t.hw_prefetches <- 0;
  t.dropped <- 0;
  t.consumed <- 0;
  t.saved <- 0

let hw_prefetches t = t.hw_prefetches
let sw_prefetches_dropped t = t.dropped
let prefetches_consumed t = (t.consumed, t.saved)

type stats = {
  h_l1 : Cache.stats;
  h_l2 : Cache.stats;
  h_tlb : Tlb.stats option;
  h_hw_prefetches : int;
  h_sw_prefetches_dropped : int;
  h_prefetches_consumed : int;
  h_prefetch_cycles_saved : int;
}

let copy_cache_stats (s : Cache.stats) = { s with Cache.reads = s.Cache.reads }

let stats t =
  {
    h_l1 = copy_cache_stats (Cache.stats t.l1);
    h_l2 = copy_cache_stats (Cache.stats t.l2);
    h_tlb = Option.map Tlb.stats t.tlb;
    h_hw_prefetches = t.hw_prefetches;
    h_sw_prefetches_dropped = t.dropped;
    h_prefetches_consumed = t.consumed;
    h_prefetch_cycles_saved = t.saved;
  }
