module A = Memsim.Addr
module Machine = Memsim.Machine
module Int_stack = Alloc.Int_stack

type strategy = Closest | New_block | First_fit

let strategy_name = function
  | Closest -> "closest"
  | New_block -> "new-block"
  | First_fit -> "first-fit"

(* ccmalloc's extra bookkeeping (page directory lookup, per-block fill
   check, strategy scan) costs more instructions than a malloc fast
   path; the paper's null-hint control experiment (2-6% slower than
   system malloc, 4.4) is a direct consequence. *)
let alloc_cycles = 16
let free_cycles = 10

(* Like the system malloc, every object carries an 8-byte size header and
   8-byte alignment (the allocator must find the size at free time).
   ccmalloc therefore differs from malloc only in *placement* -- which is
   precisely the paper's control-experiment claim. *)
let header_bytes = 8

let unit_of bytes = header_bytes + A.align_up bytes 8


(* Freed (offset-in-block, unit) slots, kept as singly linked lists
   threaded through flat arrays: one list per block, its head in the
   page's [freed] array, and unused cells on a list of their own.  A
   real allocator must recycle freed memory or churning programs
   (health!) grow without bound; the flat pool does it without host
   allocation once it has grown to the program's peak. *)
type slots = {
  mutable s_off : int array;
  mutable s_unit : int array;
  mutable s_next : int array;  (* -1 ends a list *)
  mutable s_unused : int;  (* head of the unused cells *)
}

type page = {
  base : A.t;
  fill : int array;  (* bump high-water per cache block of this page *)
  freed : int array;  (* per block: first freed slot in [t.slots], -1 = none *)
  opened : bool array;
      (* per block: has this block ever received an object?  A LIFO free
         can roll the bump pointer back to 0, so [fill] alone cannot
         answer this and would double-count blocks_opened *)
  mutable hinted : bool;
      (* has a hinted allocation ever been placed on this page?  Freed
         slots on hinted pages sit mid-structure and must not be handed
         to hint-less allocations *)
}

type t = {
  m : Machine.t;
  strategy : strategy;
  block_bytes : int;
  blocks_per_page : int;
  page_shift : int;
  mutable dir : page array;
      (* page index ([addr lsr page_shift]) -> page; [no_page] for every
         page ccmalloc did not open *)
  live : Alloc.Live_set.t;
      (* live payloads; each one's unit (header + payload bytes) is in
         its header *)
  slots : slots;
  (* Sequential default path for hint-less allocations ([no_page] until
     the first one). *)
  mutable cur_page : page;
  mutable cur_block : int;
  (* Overflow pages: hinted allocations whose hint page is exhausted go
     here (not to the default cursor, which is busy interleaving fresh
     hint-less objects); the tail of a growing structure thereby lands on
     a page where subsequent hinted allocations keep co-locating. *)
  mutable overflow_page : page;
  (* LIFO stacks of global block indices ([addr / block_bytes]) holding
     freed slots, segregated by page origin: hint-less allocations
     recycle only from default/overflow pages, hinted fallbacks only
     from hinted pages (recently freed memory is also the cache-warm
     memory, but a freed slot inside a hinted page sits mid-structure,
     and a cold object there would silently undo the co-location the
     hints bought). *)
  reuse : Int_stack.t;
  reuse_hinted : Int_stack.t;
  mutable pages_opened : int;
  mutable blocks_opened : int;
  mutable allocations : int;
  mutable frees : int;
  mutable bytes_requested : int;
  mutable hinted : int;
  mutable hinted_same_block : int;
  mutable hinted_same_page : int;
  mutable hint_unmanaged : int;
  mutable strategy_fallbacks : int;
  mutable reuse_hits : int;
}

let no_page =
  { base = A.null; fill = [||]; freed = [||]; opened = [||]; hinted = false }

let create ?(strategy = New_block) m =
  let block_bytes = Machine.l2_block_bytes m in
  let page_bytes = Machine.page_bytes m in
  {
    m;
    strategy;
    block_bytes;
    blocks_per_page = page_bytes / block_bytes;
    page_shift = A.log2 page_bytes;
    dir = Array.make 64 no_page;
    live = Alloc.Live_set.create ~page_bytes;
    slots = { s_off = [||]; s_unit = [||]; s_next = [||]; s_unused = -1 };
    cur_page = no_page;
    cur_block = 0;
    overflow_page = no_page;
    reuse = Int_stack.create 16;
    reuse_hinted = Int_stack.create 16;
    pages_opened = 0;
    blocks_opened = 0;
    allocations = 0;
    frees = 0;
    bytes_requested = 0;
    hinted = 0;
    hinted_same_block = 0;
    hinted_same_page = 0;
    hint_unmanaged = 0;
    strategy_fallbacks = 0;
    reuse_hits = 0;
  }

let page_bytes t = Machine.page_bytes t.m

let grow_slots s =
  let n = Array.length s.s_off in
  let n' = max 64 (2 * n) in
  let extend a = Array.append a (Array.make (n' - n) 0) in
  s.s_off <- extend s.s_off;
  s.s_unit <- extend s.s_unit;
  s.s_next <- extend s.s_next;
  for i = n to n' - 1 do
    s.s_next.(i) <- (if i = n' - 1 then s.s_unused else i + 1)
  done;
  s.s_unused <- n

(* Prepend a freed slot to block [b]'s list. *)
let add_slot s p b off unit =
  if s.s_unused < 0 then grow_slots s;
  let c = s.s_unused in
  s.s_unused <- s.s_next.(c);
  s.s_off.(c) <- off;
  s.s_unit.(c) <- unit;
  s.s_next.(c) <- p.freed.(b);
  p.freed.(b) <- c

let rec has_slot s c unit =
  c >= 0 && (s.s_unit.(c) >= unit || has_slot s s.s_next.(c) unit)

(* First fit within the block's list: take the first slot that fits,
   leaving its remainder in the same list position when it can still
   hold an object.  Returns the slot's offset, or -1 when none fits. *)
let rec take_slot s p b unit prev c =
  if c < 0 then -1
  else
    let u = s.s_unit.(c) in
    if u >= unit then begin
      let o = s.s_off.(c) in
      if u - unit >= header_bytes + 8 then begin
        s.s_off.(c) <- o + unit;
        s.s_unit.(c) <- u - unit
      end
      else begin
        let next = s.s_next.(c) in
        if prev < 0 then p.freed.(b) <- next else s.s_next.(prev) <- next;
        s.s_next.(c) <- s.s_unused;
        s.s_unused <- c
      end;
      o
    end
    else take_slot s p b unit c s.s_next.(c)

(* The page holding [addr]; [no_page] when ccmalloc did not open it
   (a negative address shifts far past the directory's end). *)
let page_at t addr =
  let i = addr lsr t.page_shift in
  if i < Array.length t.dir then Array.unsafe_get t.dir i else no_page

let open_page t =
  let base = Machine.reserve_pages t.m 1 in
  let p =
    {
      base;
      fill = Array.make t.blocks_per_page 0;
      freed = Array.make t.blocks_per_page (-1);
      opened = Array.make t.blocks_per_page false;
      hinted = false;
    }
  in
  let i = base lsr t.page_shift in
  let n = Array.length t.dir in
  if i >= n then begin
    let bigger = Array.make (max (i + 1) (2 * n)) no_page in
    Array.blit t.dir 0 bigger 0 n;
    t.dir <- bigger
  end;
  t.dir.(i) <- p;
  t.pages_opened <- t.pages_opened + 1;
  p

(* Place a [unit]-byte object (header + payload) in block [b] of [p];
   caller checked it fits (a freed slot or bump room).  Returns the
   payload address. *)
let place t p b unit =
  if not p.opened.(b) then begin
    p.opened.(b) <- true;
    t.blocks_opened <- t.blocks_opened + 1
  end;
  let off =
    (* prefer recycling a freed slot (first fit within the block) *)
    let o = take_slot t.slots p b unit (-1) p.freed.(b) in
    if o >= 0 then o
    else begin
      let o = p.fill.(b) in
      p.fill.(b) <- o + unit;
      o
    end
  in
  let base = p.base + (b * t.block_bytes) + off in
  let payload = base + header_bytes in
  Alloc.Live_set.add t.live payload;
  Memsim.Memory.store32 (Machine.memory t.m) base unit;
  Memsim.Memory.fill_zero (Machine.memory t.m) payload
    ~bytes:(unit - header_bytes);
  payload

let fits t p b unit =
  p.fill.(b) + unit <= t.block_bytes || has_slot t.slots p.freed.(b) unit

(* Recycle the most recently freed slot that fits from the stack
   matching the requested page origin, discarding stale entries whose
   slots have already been reused or whose page has since been claimed
   by hinted allocations.  Returns the payload, or null. *)
let rec try_reuse t stack ~hinted unit =
  if Int_stack.length stack = 0 then A.null
  else begin
    let e = Int_stack.pop stack in
    let p = t.dir.(e / t.blocks_per_page) in
    let b = e mod t.blocks_per_page in
    if p.hinted = hinted && has_slot t.slots p.freed.(b) unit then begin
      t.reuse_hits <- t.reuse_hits + 1;
      place t p b unit
    end
    else try_reuse t stack ~hinted unit
  end

(* Hint-less sequential placement: fill the current page block by block. *)
let rec default_alloc_fresh t size =
  let p = t.cur_page in
  if p == no_page || p.hinted || t.cur_block >= t.blocks_per_page then begin
    (* A page claimed by hinted allocations (the cursor page can be the
       structure's anchor) is off-limits to cold objects, even if blocks
       or freed slots remain on it. *)
    t.cur_page <- open_page t;
    t.cur_block <- 0;
    default_alloc_fresh t size
  end
  else if fits t p t.cur_block size then place t p t.cur_block size
  else begin
    t.cur_block <- t.cur_block + 1;
    default_alloc_fresh t size
  end

let default_alloc t unit =
  let payload = try_reuse t t.reuse ~hinted:false unit in
  if A.is_null payload then default_alloc_fresh t unit else payload

(* Block scans for the placement strategies; -1 when no block qualifies. *)
let rec first_fit t p unit b =
  if b >= t.blocks_per_page then -1
  else if fits t p b unit then b
  else first_fit t p unit (b + 1)

let rec first_untouched t p b =
  if b >= t.blocks_per_page then -1
  else if p.fill.(b) = 0 then b
  else first_untouched t p (b + 1)

let rec closest t p h unit d =
  if d >= t.blocks_per_page then -1
  else
    let lo = h - d and hi = h + d in
    if lo >= 0 && fits t p lo unit then lo
    else if hi < t.blocks_per_page && fits t p hi unit then hi
    else closest t p h unit (d + 1)

let strategy_block t p h unit =
  match t.strategy with
  | Closest -> closest t p h unit 1
  | New_block -> first_untouched t p 0
  | First_fit -> first_fit t p unit 0

(* Hinted allocation whose hint page is full: apply the strategy on the
   current overflow page, opening a fresh one when it too is exhausted. *)
let rec overflow_alloc_fresh t unit =
  let p = t.overflow_page in
  (* always first-fit here: the paper's strategies choose a block on the
     *hint's* page; overflow placement just needs density *)
  let b = if p == no_page then -1 else first_fit t p unit 0 in
  if b >= 0 then begin
    (* overflow pages only ever receive hinted spill, so their freed
       slots stay on the hinted side of the reuse split *)
    p.hinted <- true;
    place t p b unit
  end
  else begin
    t.overflow_page <- open_page t;
    overflow_alloc_fresh t unit
  end

let overflow_alloc t unit =
  let payload = try_reuse t t.reuse_hinted ~hinted:true unit in
  if A.is_null payload then overflow_alloc_fresh t unit else payload

let alloc t ?(hint = A.null) bytes =
  if bytes <= 0 then invalid_arg "Ccmalloc.alloc: bytes <= 0";
  let unit = unit_of bytes in
  if unit > t.block_bytes then
    invalid_arg "Ccmalloc.alloc: header + payload wider than a cache block";
  Machine.busy t.m alloc_cycles;
  t.allocations <- t.allocations + 1;
  t.bytes_requested <- t.bytes_requested + bytes;
  if A.is_null hint then default_alloc t unit
  else
    let p = page_at t hint in
    if p == no_page then begin
      (* Hint points outside ccmalloc-managed memory; treat as no hint. *)
      t.hint_unmanaged <- t.hint_unmanaged + 1;
      default_alloc t unit
    end
    else begin
      t.hinted <- t.hinted + 1;
      p.hinted <- true;
      let h = A.offset_in_page hint ~page_bytes:(page_bytes t) / t.block_bytes in
      if fits t p h unit then begin
        t.hinted_same_block <- t.hinted_same_block + 1;
        t.hinted_same_page <- t.hinted_same_page + 1;
        place t p h unit
      end
      else begin
        let b = strategy_block t p h unit in
        if b >= 0 then begin
          t.hinted_same_page <- t.hinted_same_page + 1;
          place t p b unit
        end
        else begin
          t.strategy_fallbacks <- t.strategy_fallbacks + 1;
          overflow_alloc t unit
        end
      end
    end

let free t payload =
  Machine.busy t.m free_cycles;
  if not (Alloc.Live_set.mem t.live payload) then
    invalid_arg "Ccmalloc.free: not an allocated address";
  let addr = payload - header_bytes in
  let unit = Memsim.Memory.load32 (Machine.memory t.m) addr in
  let p = page_at t addr in
  let e = addr / t.block_bytes in
  let b = e mod t.blocks_per_page in
  let in_block = addr - (e * t.block_bytes) in
  (* Every object [place] wrote lies below its block's bump pointer;
     any other unit in the header was written over the allocator's
     metadata. *)
  if unit land 7 <> 0 || unit < header_bytes + 8 || in_block + unit > p.fill.(b)
  then invalid_arg "Ccmalloc.free: header does not hold a placed unit";
  Alloc.Live_set.remove t.live payload;
  t.frees <- t.frees + 1;
  if p.fill.(b) = in_block + unit then
    (* the block's most recent object: shrink the bump pointer *)
    p.fill.(b) <- in_block
  else begin
    add_slot t.slots p b in_block unit;
    Int_stack.push (if p.hinted then t.reuse_hinted else t.reuse) e
  end

let manages t addr = page_at t addr != no_page

type counters = {
  c_allocations : int;
  c_frees : int;
  c_bytes_requested : int;
  c_hinted : int;
  c_hinted_same_block : int;
  c_hinted_same_page : int;
  c_hint_unmanaged : int;
  c_strategy_fallbacks : int;
  c_reuse_hits : int;
  c_pages_opened : int;
  c_blocks_opened : int;
}

let counters t =
  {
    c_allocations = t.allocations;
    c_frees = t.frees;
    c_bytes_requested = t.bytes_requested;
    c_hinted = t.hinted;
    c_hinted_same_block = t.hinted_same_block;
    c_hinted_same_page = t.hinted_same_page;
    c_hint_unmanaged = t.hint_unmanaged;
    c_strategy_fallbacks = t.strategy_fallbacks;
    c_reuse_hits = t.reuse_hits;
    c_pages_opened = t.pages_opened;
    c_blocks_opened = t.blocks_opened;
  }

let pp_counters ppf c =
  Format.fprintf ppf
    "allocs=%d frees=%d bytes=%d hinted=%d same_block=%d same_page=%d \
     unmanaged_hints=%d fallbacks=%d reuse_hits=%d pages=%d blocks=%d"
    c.c_allocations c.c_frees c.c_bytes_requested c.c_hinted
    c.c_hinted_same_block c.c_hinted_same_page c.c_hint_unmanaged
    c.c_strategy_fallbacks c.c_reuse_hits c.c_pages_opened c.c_blocks_opened

let allocator t =
  {
    Alloc.Allocator.name = "ccmalloc-" ^ strategy_name t.strategy;
    alloc = (fun ?hint ?site bytes -> ignore site; alloc t ?hint bytes);
    free = (fun a -> free t a);
    owns = (fun a -> Alloc.Live_set.mem t.live a);
    stats =
      (fun () ->
        {
          Alloc.Allocator.allocations = t.allocations;
          frees = t.frees;
          bytes_requested = t.bytes_requested;
          bytes_reserved = t.pages_opened * page_bytes t;
        });
  }
