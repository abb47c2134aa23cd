type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable read_misses : int;
  mutable write_misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable prefetch_installs : int;
}

type t = {
  cfg : Cache_config.t;
  (* ways are stored row-major: entry (set, way) at [set * assoc + way] *)
  tags : int array;  (* -1 = invalid *)
  dirty : bool array;
  last_use : int array;  (* global tick of last touch; LRU = smallest *)
  mutable tick : int;
  stats : stats;
  (* precomputed geometry so the hot path never divides *)
  assoc : int;
  block_shift : int;
  set_mask : int;
  write_back : bool;
  (* MRU block filter: the last line that served a hit or fill, as
     (set, absolute index).  Valid iff [tags.(mru_idx)] still holds the
     probed tag — eviction and invalidation self-invalidate the memo, so
     no extra bookkeeping is needed on those paths. *)
  mutable mru_set : int;
  mutable mru_idx : int;
  mutable mru_hits : int;
}

let fresh_stats () =
  {
    reads = 0;
    writes = 0;
    read_misses = 0;
    write_misses = 0;
    evictions = 0;
    writebacks = 0;
    prefetch_installs = 0;
  }

let create cfg =
  let n = cfg.Cache_config.sets * cfg.assoc in
  {
    cfg;
    tags = Array.make n (-1);
    dirty = Array.make n false;
    last_use = Array.make n 0;
    tick = 0;
    stats = fresh_stats ();
    assoc = cfg.Cache_config.assoc;
    block_shift = Addr.log2 cfg.Cache_config.block_bytes;
    set_mask = cfg.Cache_config.sets - 1;
    write_back = cfg.Cache_config.policy = Cache_config.Write_back;
    mru_set = -1;
    mru_idx = 0;
    mru_hits = 0;
  }

let config t = t.cfg

(* Allocation-free way lookup: absolute index, or -1 when absent.  The
   scan is a top-level recursive function (a local [let rec] would
   allocate its closure on every call without flambda), and the
   direct-mapped case needs no scan at all.  [set * assoc + w] is in
   range by construction ([set] < sets, [w] < assoc). *)
let rec find_from tags tag i stop =
  if i = stop then -1
  else if Array.unsafe_get tags i = tag then i
  else find_from tags tag (i + 1) stop

let[@inline] find_way t set tag =
  if t.assoc = 1 then if Array.unsafe_get t.tags set = tag then set else -1
  else
    let base = set * t.assoc in
    find_from t.tags tag base (base + t.assoc)

let victim_way t set =
  (* Prefer an invalid way; otherwise the least-recently-used one.  A
     direct-mapped set has only the one candidate. *)
  if t.assoc = 1 then set
  else begin
    let base = set * t.assoc in
    let best = ref base in
    let found_invalid = ref (t.tags.(base) = -1) in
    for w = 1 to t.assoc - 1 do
      let i = base + w in
      if not !found_invalid then
        if t.tags.(i) = -1 then begin
          best := i;
          found_invalid := true
        end
        else if t.last_use.(i) < t.last_use.(!best) then best := i
    done;
    !best
  end

let[@inline] touch t i =
  t.tick <- t.tick + 1;
  Array.unsafe_set t.last_use i t.tick

let fill t set tag ~dirty =
  let i = victim_way t set in
  if t.tags.(i) <> -1 then begin
    t.stats.evictions <- t.stats.evictions + 1;
    if t.dirty.(i) then t.stats.writebacks <- t.stats.writebacks + 1
  end;
  t.tags.(i) <- tag;
  t.dirty.(i) <- dirty;
  touch t i;
  t.mru_set <- set;
  t.mru_idx <- i

(* Demand-hit bookkeeping shared by [lookup] and the MRU filter. *)
let[@inline] record_hit t ~write i =
  touch t i;
  if write && t.write_back then Array.unsafe_set t.dirty i true

(* The full lookup, without the MRU memo probe: for callers that have
   just probed the memo and missed it. *)
let lookup t ~write a =
  let tag = a lsr t.block_shift in
  let set = tag land t.set_mask in
  if write then t.stats.writes <- t.stats.writes + 1
  else t.stats.reads <- t.stats.reads + 1;
  let i = find_way t set tag in
  if i >= 0 then begin
    record_hit t ~write i;
    t.mru_set <- set;
    t.mru_idx <- i;
    true
  end
  else begin
    if write then t.stats.write_misses <- t.stats.write_misses + 1
    else t.stats.read_misses <- t.stats.read_misses + 1;
    fill t set tag ~dirty:(write && t.write_back);
    false
  end

(* [mru_idx] is always a valid index (it only ever holds values
   produced by [fill] or [find_way]). *)
let[@inline] mru_hit t ~write a =
  let tag = a lsr t.block_shift in
  let set = tag land t.set_mask in
  if set = t.mru_set && Array.unsafe_get t.tags t.mru_idx = tag then begin
    if write then t.stats.writes <- t.stats.writes + 1
    else t.stats.reads <- t.stats.reads + 1;
    record_hit t ~write t.mru_idx;
    t.mru_hits <- t.mru_hits + 1;
    true
  end
  else false

let access t ~write a = mru_hit t ~write a || lookup t ~write a

let mru_filter_hits t = t.mru_hits

let probe t a =
  let tag = a lsr t.block_shift in
  let set = tag land t.set_mask in
  find_way t set tag >= 0

let install t ?(prefetch = false) a =
  let tag = a lsr t.block_shift in
  let set = tag land t.set_mask in
  if find_way t set tag < 0 then begin
    fill t set tag ~dirty:false;
    if prefetch then
      t.stats.prefetch_installs <- t.stats.prefetch_installs + 1
  end

let invalidate t a =
  let tag = a lsr t.block_shift in
  let set = tag land t.set_mask in
  let i = find_way t set tag in
  if i >= 0 then begin
    t.tags.(i) <- -1;
    t.dirty.(i) <- false
  end

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Array.fill t.last_use 0 (Array.length t.last_use) 0;
  t.mru_set <- -1;
  t.mru_idx <- 0

let stats t = t.stats

let reset_stats t =
  let s = t.stats in
  s.reads <- 0;
  s.writes <- 0;
  s.read_misses <- 0;
  s.write_misses <- 0;
  s.evictions <- 0;
  s.writebacks <- 0;
  s.prefetch_installs <- 0

let accesses s = s.reads + s.writes
let misses s = s.read_misses + s.write_misses

let miss_rate s =
  let a = accesses s in
  if a = 0 then 0. else float_of_int (misses s) /. float_of_int a

let resident_blocks t =
  Array.fold_left (fun acc tag -> if tag <> -1 then acc + 1 else acc) 0 t.tags

let set_occupancy t set =
  let base = set * t.cfg.assoc in
  let n = ref 0 in
  for w = 0 to t.cfg.assoc - 1 do
    if t.tags.(base + w) <> -1 then incr n
  done;
  !n

let pp_stats ppf s =
  Format.fprintf ppf
    "reads=%d writes=%d read_misses=%d write_misses=%d miss_rate=%.4f \
     evictions=%d writebacks=%d prefetch_installs=%d"
    s.reads s.writes s.read_misses s.write_misses (miss_rate s) s.evictions
    s.writebacks s.prefetch_installs
