type config = {
  entries : int;
  assoc : int;
  page_bytes : int;
  miss_penalty : int;
}

(* Exact LRU at O(1) per translation, hit or miss.  Way [w] of set [s]
   is entry [s * assoc + w].  Each set keeps its filled entries in a
   doubly linked recency list ([prev]/[next], from [mru] to [lru]), and
   a page-to-entry table finds a page's entry without looking at the
   other ways.  Entries are invalidated only by [clear], so a set's
   filled entries are always its first [fill] ways, and the victim --
   the first never-filled way, else the least recently used -- is way
   [fill] or the list's tail. *)
type t = {
  cfg : config;
  sets : int;
  page_shift : int;
  pages : int array;  (* -1 = invalid *)
  prev : int array;  (* toward the set's MRU entry; -1 at the head *)
  next : int array;  (* toward the set's LRU entry; -1 at the tail *)
  mru : int array;  (* per set; -1 when the set is empty *)
  lru : int array;
  fill : int array;  (* per set: filled ways *)
  (* Open-addressed page -> entry table, linear probing: a slot holds an
     entry index (its page is [pages.(entry)]) or -1.  [4 * entries]
     slots keep it at most a quarter full; eviction deletes by backward
     shift, so no tombstones build up. *)
  slots : int array;
  slot_shift : int;  (* 63 - log2 (Array.length slots) *)
  (* MRU page memo: the entry that served the last translation.  It is
     the head of its set's list, so a repeat hit there changes nothing
     but the counter; [clear] invalidates it by emptying [pages]. *)
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
  if cfg.assoc < 1 || cfg.entries mod cfg.assoc <> 0 then
    invalid_arg "Tlb.create: assoc must be positive and divide entries";
  if not (Addr.is_pow2 cfg.page_bytes) then
    invalid_arg "Tlb.create: page_bytes must be a power of two";
  let sets = cfg.entries / cfg.assoc in
  let n_slots = 4 * cfg.entries in
  {
    cfg;
    sets;
    page_shift = Addr.log2 cfg.page_bytes;
    pages = Array.make cfg.entries (-1);
    prev = Array.make cfg.entries (-1);
    next = Array.make cfg.entries (-1);
    mru = Array.make sets (-1);
    lru = Array.make sets (-1);
    fill = Array.make sets 0;
    slots = Array.make n_slots (-1);
    slot_shift = 63 - Addr.log2 n_slots;
    mru_idx = 0;
    hits = 0;
    misses = 0;
  }

let config t = t.cfg

(* Fibonacci hashing: the top bits of [page * 2^63/phi] (mod 2^63), so
   pages strided by large powers of two still spread over the slots. *)
let home t page = (page * 0x4F1BBCDCBFA53E0B) lsr t.slot_shift

(* The slot holding [page], else the empty slot ending its probe run. *)
let rec probe t page i =
  let e = Array.unsafe_get t.slots i in
  if e < 0 || Array.unsafe_get t.pages e = page then i
  else probe t page ((i + 1) land (Array.length t.slots - 1))

(* Empty slot [hole] and close the gap behind it (backward-shift
   deletion): the first later entry of the run whose home slot does not
   lie cyclically after the hole moves into it, leaving a hole where it
   was; the run's end (an empty slot) ends the shift.  Top-level
   recursion, not a local closure, keeps it allocation-free. *)
let rec delete_slot t hole j =
  let mask = Array.length t.slots - 1 in
  let e = Array.unsafe_get t.slots j in
  if e < 0 then Array.unsafe_set t.slots hole (-1)
  else if
    (j - home t (Array.unsafe_get t.pages e)) land mask
    >= (j - hole) land mask
  then begin
    Array.unsafe_set t.slots hole e;
    delete_slot t j ((j + 1) land mask)
  end
  else delete_slot t hole ((j + 1) land mask)

(* Make entry [e], which is not in set [s]'s recency list, its head. *)
let push_mru t s e =
  let head = Array.unsafe_get t.mru s in
  Array.unsafe_set t.prev e (-1);
  Array.unsafe_set t.next e head;
  if head < 0 then Array.unsafe_set t.lru s e
  else Array.unsafe_set t.prev head e;
  Array.unsafe_set t.mru s e

(* Move filled entry [e] of set [s] to the head of its recency list. *)
let touch t s e =
  if Array.unsafe_get t.mru s <> e then begin
    let p = Array.unsafe_get t.prev e and n = Array.unsafe_get t.next e in
    Array.unsafe_set t.next p n;
    if n < 0 then Array.unsafe_set t.lru s p else Array.unsafe_set t.prev n p;
    push_mru t s e
  end

(* An evicted page leaves the table before the new page enters it:
   deletion can shift the new page's probe run. *)
let miss t page =
  t.misses <- t.misses + 1;
  let s = page land (t.sets - 1) in
  let n = Array.unsafe_get t.fill s in
  let e =
    if n < t.cfg.assoc then begin
      let e = (s * t.cfg.assoc) + n in
      Array.unsafe_set t.fill s (n + 1);
      push_mru t s e;
      e
    end
    else begin
      let e = Array.unsafe_get t.lru s in
      let old = Array.unsafe_get t.pages e in
      let hole = probe t old (home t old) in
      delete_slot t hole ((hole + 1) land (Array.length t.slots - 1));
      touch t s e;
      e
    end
  in
  Array.unsafe_set t.pages e page;
  Array.unsafe_set t.slots (probe t page (home t page)) e;
  t.mru_idx <- e;
  t.cfg.miss_penalty

let access t a =
  let page = a lsr t.page_shift in
  if Array.unsafe_get t.pages t.mru_idx = page then begin
    t.hits <- t.hits + 1;
    0
  end
  else
    let e = Array.unsafe_get t.slots (probe t page (home t page)) in
    if e < 0 then miss t page
    else begin
      t.hits <- t.hits + 1;
      touch t (page land (t.sets - 1)) e;
      t.mru_idx <- e;
      0
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
  Array.fill t.mru 0 t.sets (-1);
  Array.fill t.lru 0 t.sets (-1);
  Array.fill t.fill 0 t.sets 0;
  Array.fill t.slots 0 (Array.length t.slots) (-1)

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
