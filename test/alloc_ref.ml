(* The Hashtbl-backed allocators as they stood before their metadata
   moved to [Alloc.Int_table], kept here unchanged (apart from the
   public wrappers they no longer need, and ccmalloc's whole-block span
   path, removed from the library with it) as the oracle for
   [Suite_alloc_table]'s differential tests.  Nothing outside the tests
   uses them. *)

module A = Memsim.Addr
module Machine = Memsim.Machine

module Malloc_ref = struct
  let header_bytes = 8

  (* Instruction cost of the allocator fast path, charged as busy cycles. *)
  let alloc_cycles = 12
  let free_cycles = 8

  type t = {
    m : Machine.t;
    grow_pages : int;
    (* exact-size LIFO bins: carved size -> stack of chunk base addresses *)
    bins : (int, int list ref) Hashtbl.t;
    mutable wilderness : int;  (* next free byte of the current region *)
    mutable wilderness_end : int;
    live : (int, int) Hashtbl.t;  (* payload addr -> carved bytes *)
    mutable allocations : int;
    mutable frees : int;
    mutable bytes_requested : int;
    mutable bytes_reserved : int;
  }

  let create ?(grow_pages = 16) m =
    {
      m;
      grow_pages;
      bins = Hashtbl.create 64;
      wilderness = 0;
      wilderness_end = 0;
      live = Hashtbl.create 4096;
      allocations = 0;
      frees = 0;
      bytes_requested = 0;
      bytes_reserved = 0;
    }

  let bin t size =
    match Hashtbl.find_opt t.bins size with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace t.bins size r;
        r

  let carve t need =
    if t.wilderness + need > t.wilderness_end then begin
      let pages =
        max t.grow_pages
          ((need + Machine.page_bytes t.m - 1) / Machine.page_bytes t.m)
      in
      let base = Machine.reserve_pages t.m pages in
      t.wilderness <- base;
      t.wilderness_end <- base + (pages * Machine.page_bytes t.m)
    end;
    let base = t.wilderness in
    t.wilderness <- base + need;
    base

  let alloc t bytes =
    if bytes <= 0 then invalid_arg "Malloc.alloc: bytes <= 0";
    Machine.busy t.m alloc_cycles;
    let need = header_bytes + A.align_up bytes 8 in
    let b = bin t need in
    let base =
      match !b with
      | chunk :: rest ->
          (* LIFO bin reuse: the most recently freed chunk of this size,
             wherever in the heap it happens to sit *)
          b := rest;
          chunk
      | [] -> carve t need
    in
    let payload = base + header_bytes in
    Hashtbl.replace t.live payload need;
    (* Header word records the carved size, as a real allocator would. *)
    Memsim.Memory.store32 (Machine.memory t.m) base need;
    Memsim.Memory.fill_zero (Machine.memory t.m) payload ~bytes;
    t.allocations <- t.allocations + 1;
    t.bytes_requested <- t.bytes_requested + bytes;
    t.bytes_reserved <- t.bytes_reserved + need;
    payload

  let free t payload =
    Machine.busy t.m free_cycles;
    match Hashtbl.find_opt t.live payload with
    | None -> invalid_arg "Malloc.free: not an allocated address"
    | Some carved ->
        Hashtbl.remove t.live payload;
        t.frees <- t.frees + 1;
        t.bytes_reserved <- t.bytes_reserved - carved;
        let b = bin t carved in
        b := (payload - header_bytes) :: !b

  let free_bytes t =
    Hashtbl.fold (fun size b acc -> acc + (size * List.length !b)) t.bins 0

  let check_invariants t =
    (* live payload ranges and binned chunk ranges must be disjoint *)
    let ranges = ref [] in
    Hashtbl.iter
      (fun payload carved -> ranges := (payload - header_bytes, carved) :: !ranges)
      t.live;
    Hashtbl.iter
      (fun size b -> List.iter (fun base -> ranges := (base, size) :: !ranges) !b)
      t.bins;
    let sorted = List.sort compare !ranges in
    let rec go = function
      | [] | [ _ ] -> ()
      | (a1, s1) :: ((a2, _) :: _ as rest) ->
          if a1 + s1 > a2 then failwith "Malloc: overlapping chunks";
          go rest
    in
    go sorted;
    if List.exists (fun (a, s) -> a <= 0 || s <= 0) sorted then
      failwith "Malloc: degenerate chunk"

    let owns t a = Hashtbl.mem t.live a
end

module Ccmalloc_ref = struct
  type strategy = Ccsl.Ccmalloc.strategy = Closest | New_block | First_fit

  (* ccmalloc's extra bookkeeping (page table lookup, per-block fill
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


  type page = {
    base : A.t;
    fill : int array;  (* bump high-water per cache block of this page *)
    freed : (int * int) list array;
        (* per block: freed (offset-in-block, unit) slots available for
           reuse -- a real allocator must recycle freed memory or churning
           programs (health!) grow without bound *)
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
    pages_per_grow : int;
    block_bytes : int;
    blocks_per_page : int;
    pages : (int, page) Hashtbl.t;  (* page index -> page *)
    live : (A.t, int * int) Hashtbl.t;  (* payload -> (page index, bytes) *)
    (* Sequential default path for hint-less allocations. *)
    mutable cur_page : page option;
    mutable cur_block : int;
    (* Overflow pages: hinted allocations whose hint page is exhausted go
       here (not to the default cursor, which is busy interleaving fresh
       hint-less objects); the tail of a growing structure thereby lands on
       a page where subsequent hinted allocations keep co-locating. *)
    mutable overflow_page : page option;
    (* LIFO stacks of (page, block) pairs holding freed slots, segregated
       by page origin: hint-less allocations recycle only from
       default/overflow pages, hinted fallbacks only from hinted pages
       (recently freed memory is also the cache-warm memory, but a freed
       slot inside a hinted page sits mid-structure, and a cold object
       there would silently undo the co-location the hints bought). *)
    mutable reuse : (page * int) list;
    mutable reuse_hinted : (page * int) list;
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

  let create ?(strategy = New_block) ?(pages_per_grow = 1) m =
    let block_bytes = Machine.l2_block_bytes m in
    let page_bytes = Machine.page_bytes m in
    {
      m;
      strategy;
      pages_per_grow;
      block_bytes;
      blocks_per_page = page_bytes / block_bytes;
      pages = Hashtbl.create 512;
      live = Hashtbl.create 4096;
      cur_page = None;
      cur_block = 0;
      overflow_page = None;
      reuse = [];
      reuse_hinted = [];
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

  let open_page t =
    let base = Machine.reserve_pages t.m t.pages_per_grow in
    (* reserve_pages may hand out multiple pages; register each. *)
    let first = ref None in
    for i = 0 to t.pages_per_grow - 1 do
      let b = base + (i * page_bytes t) in
      let p =
        {
          base = b;
          fill = Array.make t.blocks_per_page 0;
          freed = Array.make t.blocks_per_page [];
          opened = Array.make t.blocks_per_page false;
          hinted = false;
        }
      in
      Hashtbl.replace t.pages (A.page_index b ~page_bytes:(page_bytes t)) p;
      t.pages_opened <- t.pages_opened + 1;
      if !first = None then first := Some p
    done;
    Option.get !first

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
      let rec take acc = function
        | [] -> None
        | (o, u) :: rest when u >= unit ->
            (* return the remainder to the slot list when it can still
               hold an object *)
            let rest =
              if u - unit >= header_bytes + 8 then (o + unit, u - unit) :: rest
              else rest
            in
            p.freed.(b) <- List.rev_append acc rest;
            Some o
        | slot :: rest -> take (slot :: acc) rest
      in
      match take [] p.freed.(b) with
      | Some o -> o
      | None ->
          let o = p.fill.(b) in
          p.fill.(b) <- o + unit;
          o
    in
    let base = p.base + (b * t.block_bytes) + off in
    let payload = base + header_bytes in
    let page_idx = A.page_index p.base ~page_bytes:(page_bytes t) in
    Hashtbl.replace t.live payload (page_idx, unit);
    Memsim.Memory.store32 (Machine.memory t.m) base unit;
    Memsim.Memory.fill_zero (Machine.memory t.m) payload
      ~bytes:(unit - header_bytes);
    payload

  let fits t p b unit =
    p.fill.(b) + unit <= t.block_bytes
    || List.exists (fun (_, u) -> u >= unit) p.freed.(b)

  (* Recycle the most recently freed slot that fits from the stack
     matching the requested page origin, discarding stale entries whose
     slots have already been reused or whose page has since been claimed
     by hinted allocations. *)
  let try_reuse t ~hinted unit =
    let get () = if hinted then t.reuse_hinted else t.reuse in
    let set v = if hinted then t.reuse_hinted <- v else t.reuse <- v in
    let rec go () =
      match get () with
      | [] -> None
      | (p, b) :: rest ->
          set rest;
          if
            p.hinted = hinted
            && List.exists (fun (_, u) -> u >= unit) p.freed.(b)
          then begin
            t.reuse_hits <- t.reuse_hits + 1;
            Some (place t p b unit)
          end
          else go ()
    in
    go ()

  (* Hint-less sequential placement: fill the current page block by block. *)
  let rec default_alloc_fresh t size =
    match t.cur_page with
    | None ->
        t.cur_page <- Some (open_page t);
        t.cur_block <- 0;
        default_alloc_fresh t size
    | Some p ->
        if p.hinted || t.cur_block >= t.blocks_per_page then begin
          (* A page claimed by hinted allocations (the cursor page can be
             the structure's anchor) is off-limits to cold objects, even
             if blocks or freed slots remain on it. *)
          t.cur_page <- Some (open_page t);
          t.cur_block <- 0;
          default_alloc_fresh t size
        end
        else if fits t p t.cur_block size then place t p t.cur_block size
        else begin
          t.cur_block <- t.cur_block + 1;
          default_alloc_fresh t size
        end

  let default_alloc t unit =
    match try_reuse t ~hinted:false unit with
    | Some payload -> payload
    | None -> default_alloc_fresh t unit

  let strategy_block t p h size =
    let n = t.blocks_per_page in
    match t.strategy with
    | Closest ->
        let rec go d =
          if d >= n then None
          else
            let lo = h - d and hi = h + d in
            if lo >= 0 && fits t p lo size then Some lo
            else if hi < n && fits t p hi size then Some hi
            else go (d + 1)
        in
        go 1
    | New_block ->
        let rec go b =
          if b >= n then None
          else if p.fill.(b) = 0 then Some b
          else go (b + 1)
        in
        go 0
    | First_fit ->
        let rec go b =
          if b >= n then None
          else if fits t p b size then Some b
          else go (b + 1)
        in
        go 0

  (* Hinted allocation whose hint page is full: apply the strategy on the
     current overflow page, opening a fresh one when it too is exhausted. *)
  let rec overflow_alloc_fresh t unit =
    match t.overflow_page with
    | None ->
        t.overflow_page <- Some (open_page t);
        overflow_alloc_fresh t unit
    | Some p ->
        (* always first-fit here: the paper's strategies choose a block on
           the *hint's* page; overflow placement just needs density *)
        let rec scan b =
          if b >= t.blocks_per_page then None
          else if fits t p b unit then Some b
          else scan (b + 1)
        in
        (match scan 0 with
        | Some b ->
            (* overflow pages only ever receive hinted spill, so their
               freed slots stay on the hinted side of the reuse split *)
            p.hinted <- true;
            place t p b unit
        | None ->
            t.overflow_page <- Some (open_page t);
            overflow_alloc_fresh t unit)

  let overflow_alloc t unit =
    match try_reuse t ~hinted:true unit with
    | Some payload -> payload
    | None -> overflow_alloc_fresh t unit

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
      let page_idx = A.page_index hint ~page_bytes:(page_bytes t) in
      match Hashtbl.find_opt t.pages page_idx with
      | None ->
          (* Hint points outside ccmalloc-managed memory; treat as no
             hint. *)
          t.hint_unmanaged <- t.hint_unmanaged + 1;
          default_alloc t unit
      | Some p ->
          t.hinted <- t.hinted + 1;
          p.hinted <- true;
          let h = A.offset_in_page hint ~page_bytes:(page_bytes t) / t.block_bytes in
          if fits t p h unit then begin
            t.hinted_same_block <- t.hinted_same_block + 1;
            t.hinted_same_page <- t.hinted_same_page + 1;
            place t p h unit
          end
          else begin
            match strategy_block t p h unit with
            | Some b ->
                t.hinted_same_page <- t.hinted_same_page + 1;
                place t p b unit
            | None ->
                t.strategy_fallbacks <- t.strategy_fallbacks + 1;
                overflow_alloc t unit
          end

  let free t payload =
    Machine.busy t.m free_cycles;
    match Hashtbl.find_opt t.live payload with
    | None -> invalid_arg "Ccmalloc.free: not an allocated address"
    | Some (page_idx, unit) ->
        Hashtbl.remove t.live payload;
        t.frees <- t.frees + 1;
        let p = Hashtbl.find t.pages page_idx in
        let addr = payload - header_bytes in
        let off = A.offset_in_page addr ~page_bytes:(page_bytes t) in
        let b = off / t.block_bytes in
        let in_block = off - (b * t.block_bytes) in
        if p.fill.(b) = in_block + unit then
          (* the block's most recent object: shrink the bump pointer *)
          p.fill.(b) <- in_block
        else begin
          p.freed.(b) <- (in_block, unit) :: p.freed.(b);
          if p.hinted then t.reuse_hinted <- (p, b) :: t.reuse_hinted
          else t.reuse <- (p, b) :: t.reuse
        end

  let manages t addr =
    let idx = A.page_index addr ~page_bytes:(page_bytes t) in
    Hashtbl.mem t.pages idx

    let owns t a = Hashtbl.mem t.live a
    let bytes_reserved t = t.pages_opened * page_bytes t

    let counters t =
      {
        Ccsl.Ccmalloc.c_allocations = t.allocations;
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
end
