type config = {
  entries : int;
  assoc : int;
  page_bytes : int;
  miss_penalty : int;
}

type t = {
  cfg : config;
  sets : int;
  page_shift : int;
  pages : int array;  (* -1 = invalid *)
  last_use : int array;
  mutable tick : int;
  (* MRU page memo: the entry that served the last translation.  A page
     sits in at most one way, so when [pages.(mru_idx)] still holds the
     probed page the memo is exactly the entry a scan would find; an
     eviction or [clear] invalidates it by overwriting that way. *)
  mutable mru_idx : int;
  mutable hits : int;
  mutable misses : int;
}

let default_config ~page_bytes =
  (* 64-entry fully associative dTLB; UltraSPARC handles misses with a
     software trap costing a few tens of cycles *)
  { entries = 64; assoc = 64; page_bytes; miss_penalty = 40 }

let create cfg =
  if not (Addr.is_pow2 cfg.entries) then
    invalid_arg "Tlb.create: entries must be a power of two";
  if cfg.entries mod cfg.assoc <> 0 then
    invalid_arg "Tlb.create: assoc must divide entries";
  if not (Addr.is_pow2 cfg.page_bytes) then
    invalid_arg "Tlb.create: page_bytes must be a power of two";
  let sets = cfg.entries / cfg.assoc in
  {
    cfg;
    sets;
    page_shift = Addr.log2 cfg.page_bytes;
    pages = Array.make cfg.entries (-1);
    last_use = Array.make cfg.entries 0;
    tick = 0;
    mru_idx = 0;
    hits = 0;
    misses = 0;
  }

let config t = t.cfg

(* One pass over the set: the matching way (stopping there), or on a
   miss the victim -- the first invalid way, else the least recently
   used.  Misses are encoded as [-1 - victim]. *)
let rec scan t page i stop victim =
  if i = stop then -1 - victim
  else
    let p = Array.unsafe_get t.pages i in
    if p = page then i
    else
      let victim =
        if Array.unsafe_get t.pages victim = -1 then victim
        else if p = -1 then i
        else if Array.unsafe_get t.last_use i
                < Array.unsafe_get t.last_use victim
        then i
        else victim
      in
      scan t page (i + 1) stop victim

let hit t i =
  t.tick <- t.tick + 1;
  Array.unsafe_set t.last_use i t.tick;
  t.hits <- t.hits + 1;
  t.mru_idx <- i;
  0

let access t a =
  let page = a lsr t.page_shift in
  if Array.unsafe_get t.pages t.mru_idx = page then hit t t.mru_idx
  else
    let base = (page land (t.sets - 1)) * t.cfg.assoc in
    let i = scan t page base (base + t.cfg.assoc) base in
    if i >= 0 then hit t i
    else begin
      let victim = -1 - i in
      t.tick <- t.tick + 1;
      t.misses <- t.misses + 1;
      t.pages.(victim) <- page;
      t.last_use.(victim) <- t.tick;
      t.mru_idx <- victim;
      t.cfg.miss_penalty
    end

let hits t = t.hits
let misses t = t.misses

type stats = { t_hits : int; t_misses : int }

let stats t = { t_hits = t.hits; t_misses = t.misses }

let stats_miss_rate s =
  let n = s.t_hits + s.t_misses in
  if n = 0 then 0. else float_of_int s.t_misses /. float_of_int n

let pp_stats ppf s =
  Format.fprintf ppf "hits=%d misses=%d miss_rate=%.4f" s.t_hits s.t_misses
    (stats_miss_rate s)

let clear t =
  Array.fill t.pages 0 (Array.length t.pages) (-1);
  Array.fill t.last_use 0 (Array.length t.last_use) 0

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
