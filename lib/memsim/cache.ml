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
  (* global tick of each way's last touch; LRU = smallest.  Only sets
     with a choice of victim read it, so direct-mapped hits skip it. *)
  last_use : int array;
  mutable tick : int;
  stats : stats;
  (* precomputed geometry so the hot path never divides *)
  assoc : int;
  block_shift : int;
  set_mask : int;
  write_back : bool;
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
  }

let config t = t.cfg

(* Every index below is [set * assoc + w] with [set] < sets and [w] <
   assoc, in range by construction.  Sets wider than two ways are
   scanned by top-level recursive functions (a local [let rec] would
   allocate its closure on every call without flambda).  [find_from]'s
   types are pinned: inferred, it would be polymorphic, and every way it
   compares would be a C call to [caml_equal]; at [int] it is one
   machine compare.  The profiling machine's 16-way L2 takes this path
   on every L1 miss. *)
let rec find_from (tags : int array) (tag : int) i stop =
  if i = stop then -1
  else if Array.unsafe_get tags i = tag then i
  else find_from tags tag (i + 1) stop

(* The first invalid way of [i, stop), else the least recently used. *)
let rec victim_from t best i stop =
  if i = stop || Array.unsafe_get t.tags best = -1 then best
  else if Array.unsafe_get t.tags i = -1 then i
  else if Array.unsafe_get t.last_use i < Array.unsafe_get t.last_use best then
    victim_from t i (i + 1) stop
  else victim_from t best (i + 1) stop

(* The way holding [tag] in [set], or -1 when absent. *)
let find_way t set tag =
  match t.assoc with
  | 1 -> if Array.unsafe_get t.tags set = tag then set else -1
  | 2 ->
      let i = set + set in
      if Array.unsafe_get t.tags i = tag then i
      else if Array.unsafe_get t.tags (i + 1) = tag then i + 1
      else -1
  | n ->
      let base = set * n in
      find_from t.tags tag base (base + n)

(* The victim of the 2-way set at [i], whose ways hold [w0] and [w1]: an
   invalid way first, else the older stamp.  Stamps lie in [0, 2^62),
   so way 1 is older exactly when the sign bit of the difference is set;
   reading it off replaces a data-dependent branch. *)
let[@inline] victim2 t i w0 w1 =
  if w0 = -1 then i
  else if w1 = -1 then i + 1
  else
    i
    + (Array.unsafe_get t.last_use (i + 1) - Array.unsafe_get t.last_use i)
      lsr 62

let victim_way t set =
  match t.assoc with
  | 1 -> set
  | 2 ->
      let i = set + set in
      victim2 t i (Array.unsafe_get t.tags i) (Array.unsafe_get t.tags (i + 1))
  | n ->
      let base = set * n in
      victim_from t base (base + 1) (base + n)

let[@inline] touch t i =
  t.tick <- t.tick + 1;
  Array.unsafe_set t.last_use i t.tick

(* Put [tag] in way [i], evicting (and writing back) what it held.  The
   caller stamps the way; a direct-mapped demand miss need not. *)
let[@inline] replace t i tag ~dirty =
  if Array.unsafe_get t.tags i <> -1 then begin
    t.stats.evictions <- t.stats.evictions + 1;
    if Array.unsafe_get t.dirty i then
      t.stats.writebacks <- t.stats.writebacks + 1
  end;
  Array.unsafe_set t.tags i tag;
  Array.unsafe_set t.dirty i dirty

let[@inline] hit t ~write i =
  if write && t.write_back then Array.unsafe_set t.dirty i true;
  true

let[@inline] miss t ~write i tag =
  if write then t.stats.write_misses <- t.stats.write_misses + 1
  else t.stats.read_misses <- t.stats.read_misses + 1;
  replace t i tag ~dirty:(write && t.write_back);
  false

(* Straight-line sets for the two associativities the paper's machines
   use: a direct-mapped set is one compare and keeps no stamp; a 2-way
   set is two compares and the two-way victim choice.  Wider sets
   scan. *)
let access t ~write a =
  let tag = a lsr t.block_shift in
  let set = tag land t.set_mask in
  if write then t.stats.writes <- t.stats.writes + 1
  else t.stats.reads <- t.stats.reads + 1;
  match t.assoc with
  | 1 ->
      if Array.unsafe_get t.tags set = tag then hit t ~write set
      else miss t ~write set tag
  | 2 ->
      let i = set + set in
      let w0 = Array.unsafe_get t.tags i in
      let w1 = Array.unsafe_get t.tags (i + 1) in
      let w = if w0 = tag then i else if w1 = tag then i + 1 else -1 in
      if w >= 0 then begin
        touch t w;
        hit t ~write w
      end
      else
        let v = victim2 t i w0 w1 in
        touch t v;
        miss t ~write v tag
  | n ->
      let base = set * n in
      let w = find_from t.tags tag base (base + n) in
      if w >= 0 then begin
        touch t w;
        hit t ~write w
      end
      else
        let v = victim_from t base (base + 1) (base + n) in
        touch t v;
        miss t ~write v tag

let probe t a =
  let tag = a lsr t.block_shift in
  find_way t (tag land t.set_mask) tag >= 0

let install t ?(prefetch = false) a =
  let tag = a lsr t.block_shift in
  let set = tag land t.set_mask in
  if find_way t set tag < 0 then begin
    let i = victim_way t set in
    replace t i tag ~dirty:false;
    touch t i;
    if prefetch then
      t.stats.prefetch_installs <- t.stats.prefetch_installs + 1
  end

let invalidate t a =
  let tag = a lsr t.block_shift in
  let i = find_way t (tag land t.set_mask) tag in
  if i >= 0 then begin
    t.tags.(i) <- -1;
    t.dirty.(i) <- false
  end

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Array.fill t.last_use 0 (Array.length t.last_use) 0

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
