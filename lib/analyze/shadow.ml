module A = Memsim.Addr
module Machine = Memsim.Machine
module CC = Memsim.Cache_config
module Int_table = Alloc.Int_table

type violation = {
  mutable v_count : int;
  v_first : A.t;
  v_write : bool;
}

(* Cap on distinct out-of-bounds locations reported; past this the
   sanitizer keeps counting but stops allocating per-block records. *)
let max_violation_blocks = 200

(* Per allocation site: hinted allocations, and those whose hint lies
   outside the cache-conscious allocator's pages. *)
type site_hints = { mutable hinted : int; mutable unmanaged : int }

type t = {
  m : Machine.t;
  block_bytes : int;
  l2 : CC.t;
  mutable cc : Ccsl.Ccmalloc.t option;
  (* The live table: one bit per simulated byte, set while a live object
     or a registered element covers it.  [live.(a lsr page_shift)] is the
     bitmap of [a]'s page ([page_bytes / 8] bytes) once anything there
     was marked, and the shared all-zero [untouched] bitmap before that,
     as in [Memsim.Memory]'s page table.  Every bitmap has the same
     length, so the access test reads no length. *)
  page_shift : int;
  off_mask : int;
  untouched : Bytes.t;
  mutable live : Bytes.t array;
  sizes : Int_table.t;  (* live object payload -> bytes *)
  morph_blocks : Int_table.t;  (* block index of a morphed element -> 1 *)
  violations : (int, violation) Hashtbl.t;  (* block index -> record *)
  mutable dropped_violations : int;
  (* hot-region claims of colored structures: struct_id -> (first, sets) *)
  claims : (string, int * int) Hashtbl.t;
  mutable morph_diags : Diag.t list;  (* straddle/coloring findings *)
  sites : (string, site_hints) Hashtbl.t;
  mutable sub : Machine.subscription option;
  mutable morph_obs : Ccsl.Ccmorph.observer_id option;
}

let create m =
  let page_bytes = Machine.page_bytes m in
  let untouched = Bytes.make (page_bytes / 8) '\000' in
  {
    m;
    block_bytes = Machine.l2_block_bytes m;
    l2 = (Machine.config m).Memsim.Config.l2;
    cc = None;
    page_shift = A.log2 page_bytes;
    off_mask = page_bytes - 1;
    untouched;
    live = Array.make 64 untouched;
    sizes = Int_table.create 1024;
    morph_blocks = Int_table.create 1024;
    violations = Hashtbl.create 64;
    dropped_violations = 0;
    claims = Hashtbl.create 8;
    morph_diags = [];
    sites = Hashtbl.create 16;
    sub = None;
    morph_obs = None;
  }

let set_ccmalloc t cc = t.cc <- Some cc

(* One page index and one bit test.  A negative address or one past the
   table's end indexes no bitmap. *)
let[@inline] live t a =
  let i = a lsr t.page_shift in
  i < Array.length t.live
  &&
  let o = a land t.off_mask in
  Char.code (Bytes.unsafe_get (Array.unsafe_get t.live i) (o lsr 3))
  land (1 lsl (o land 7))
  <> 0

(* The bitmap of page [i], materialized (and the table grown) on first
   use. *)
let bitmap t i =
  let n = Array.length t.live in
  if i >= n then begin
    let bigger = Array.make (max (i + 1) (n * 2)) t.untouched in
    Array.blit t.live 0 bigger 0 n;
    t.live <- bigger
  end;
  let bits = t.live.(i) in
  if bits != t.untouched then bits
  else begin
    let bits = Bytes.make (Bytes.length t.untouched) '\000' in
    t.live.(i) <- bits;
    bits
  end

(* Set ([on]) or clear the live bits of bytes [[a, a + n)], page by page:
   whole bytes of the bitmap at once, single bits at either edge.
   Clearing never materializes a bitmap. *)
let mark t a n ~on =
  let a = ref a and n = ref n in
  while !n > 0 do
    let i = !a lsr t.page_shift and o = !a land t.off_mask in
    let piece = min !n (t.off_mask + 1 - o) in
    let bits =
      if on then bitmap t i
      else if i < Array.length t.live then t.live.(i)
      else t.untouched
    in
    if bits != t.untouched then begin
      let b = ref o and hi = o + piece in
      while !b < hi do
        if !b land 7 = 0 && !b + 8 <= hi then begin
          Bytes.set bits (!b lsr 3) (if on then '\255' else '\000');
          b := !b + 8
        end
        else begin
          let c = Char.code (Bytes.get bits (!b lsr 3))
          and bit = 1 lsl (!b land 7) in
          Bytes.set bits (!b lsr 3)
            (Char.chr (if on then c lor bit else c land lnot bit));
          incr b
        end
      done
    end;
    a := !a + piece;
    n := !n - piece
  done

(* A re-allocation at a live payload replaces the old extent, as a
   payload-keyed map would. *)
let note_alloc t payload bytes =
  let old = Int_table.exchange t.sizes payload bytes ~default:0 in
  if old > 0 then mark t payload old ~on:false;
  mark t payload bytes ~on:true

let note_free t payload =
  let bytes = Int_table.find_or t.sizes payload ~default:0 in
  if bytes > 0 then begin
    Int_table.remove t.sizes payload;
    mark t payload bytes ~on:false
  end

let default_struct_id (desc : Ccsl.Ccmorph.desc) =
  Printf.sprintf "elem%dB/kids@%s" desc.Ccsl.Ccmorph.elem_bytes
    (String.concat ","
       (Array.to_list
          (Array.map string_of_int desc.Ccsl.Ccmorph.kid_offsets)))

(* Walk the new layout untimed, following child pointers only (parent
   pointers stay inside the structure).  Returns element base addresses;
   a visited set guards against malformed layouts looping. *)
let walk_layout t (desc : Ccsl.Ccmorph.desc) roots =
  let is_ptr w =
    (not (A.is_null w))
    &&
    match desc.Ccsl.Ccmorph.kid_filter with None -> true | Some f -> f w
  in
  let seen = Hashtbl.create 1024 in
  let out = ref [] in
  let stack = Stack.create () in
  Array.iter
    (fun r -> if not (A.is_null r) then Stack.push r stack)
    roots;
  while not (Stack.is_empty stack) do
    let a = Stack.pop stack in
    if not (Hashtbl.mem seen a) then begin
      Hashtbl.replace seen a ();
      out := a :: !out;
      Array.iter
        (fun off ->
          let kid = Machine.uload32 t.m (a + off) in
          if is_ptr kid then Stack.push kid stack)
        desc.Ccsl.Ccmorph.kid_offsets
    end
  done;
  !out

let check_coloring t ~struct_id ~(params : Ccsl.Ccmorph.params)
    ~(result : Ccsl.Ccmorph.result) blocks =
  match
    Ccsl.Coloring.v ~color_frac:params.Ccsl.Ccmorph.color_frac
      ~hot_first_set:params.Ccsl.Ccmorph.color_first_set ~l2:t.l2
      ~page_bytes:(Machine.page_bytes t.m) ()
  with
  | exception Invalid_argument msg ->
      t.morph_diags <-
        Diag.v ~rule:"placement/hot-outside-range" Diag.Error
          ~subject:(Diag.Structure struct_id)
          (Printf.sprintf "declared coloring parameters are unrealizable: %s"
             msg)
        :: t.morph_diags
  | coloring ->
      let first = coloring.Ccsl.Coloring.hot_first_set in
      let sets = coloring.Ccsl.Coloring.hot_sets in
      let cap = Ccsl.Coloring.hot_capacity_blocks coloring in
      let in_range base =
        let s = CC.set_of_addr t.l2 base in
        s >= first && s < first + sets
      in
      let hot_range_blocks =
        Hashtbl.fold (fun base () n -> if in_range base then n + 1 else n)
          blocks 0
      in
      if
        hot_range_blocks <> result.Ccsl.Ccmorph.hot_blocks
        || hot_range_blocks > cap
      then
        t.morph_diags <-
          Diag.v ~rule:"placement/hot-outside-range" Diag.Error
            ~subject:(Diag.Structure struct_id)
            ~evidence:
              [
                ("reported_hot_blocks", float_of_int result.Ccsl.Ccmorph.hot_blocks);
                ("blocks_in_hot_range", float_of_int hot_range_blocks);
                ("hot_first_set", float_of_int first);
                ("hot_sets", float_of_int sets);
                ("hot_capacity_blocks", float_of_int cap);
              ]
            (Printf.sprintf
               "colored layout does not respect hot set range [%d, %d): the \
                morph reports %d hot blocks but %d distinct layout blocks map \
                into the range (capacity %d)"
               first (first + sets) result.Ccsl.Ccmorph.hot_blocks
               hot_range_blocks cap)
          :: t.morph_diags;
      (* disjointness against other live colored structures *)
      Hashtbl.iter
        (fun other (ofirst, osets) ->
          if
            other <> struct_id
            && not (first + sets <= ofirst || ofirst + osets <= first)
          then
            t.morph_diags <-
              Diag.v ~rule:"placement/hot-regions-overlap" Diag.Error
                ~subject:(Diag.Structure struct_id)
                ~evidence:
                  [
                    ("hot_first_set", float_of_int first);
                    ("hot_sets", float_of_int sets);
                    ("other_first_set", float_of_int ofirst);
                    ("other_sets", float_of_int osets);
                  ]
                (Printf.sprintf
                   "hot set range [%d, %d) intersects the range [%d, %d) \
                    claimed by concurrently-colored structure %s; their hot \
                    elements will evict each other"
                   first (first + sets) ofirst (ofirst + osets) other)
              :: t.morph_diags)
        t.claims;
      Hashtbl.replace t.claims struct_id (first, sets)

let note_morph t ?struct_id ~(params : Ccsl.Ccmorph.params)
    ~(desc : Ccsl.Ccmorph.desc) (result : Ccsl.Ccmorph.result) =
  if result.Ccsl.Ccmorph.nodes > 0 then begin
    let struct_id =
      match struct_id with Some s -> s | None -> default_struct_id desc
    in
    let elem_bytes = desc.Ccsl.Ccmorph.elem_bytes in
    let addrs = walk_layout t desc result.Ccsl.Ccmorph.new_roots in
    let blocks = Hashtbl.create 256 in
    let straddles = ref 0 in
    let first_straddle = ref A.null in
    List.iter
      (fun a ->
        mark t a elem_bytes ~on:true;
        let base = A.block_base a ~block_bytes:t.block_bytes in
        Hashtbl.replace blocks base ();
        Int_table.replace t.morph_blocks
          (A.block_index a ~block_bytes:t.block_bytes)
          1;
        if A.offset_in_block a ~block_bytes:t.block_bytes + elem_bytes
           > t.block_bytes
        then begin
          (* the element also owns the spilled-into block *)
          Int_table.replace t.morph_blocks
            (A.block_index (a + elem_bytes - 1) ~block_bytes:t.block_bytes)
            1;
          incr straddles;
          if A.is_null !first_straddle then first_straddle := a
        end)
      addrs;
    if !straddles > 0 then
      t.morph_diags <-
        Diag.v ~rule:"placement/elem-straddles-block" Diag.Error
          ~subject:(Diag.Address !first_straddle)
          ~evidence:
            [
              ("straddling_elements", float_of_int !straddles);
              ("elem_bytes", float_of_int elem_bytes);
              ("block_bytes", float_of_int t.block_bytes);
            ]
          (Printf.sprintf
             "%d morphed element(s) of %s cross an L2 block boundary (first \
              at 0x%x); every such element costs two fills per access"
             !straddles struct_id !first_straddle)
        :: t.morph_diags;
    if params.Ccsl.Ccmorph.color then
      check_coloring t ~struct_id ~params ~result blocks
  end

let record_violation t ~write addr =
  let block = A.block_index addr ~block_bytes:t.block_bytes in
  match Hashtbl.find_opt t.violations block with
  | Some v -> v.v_count <- v.v_count + 1
  | None ->
      if Hashtbl.length t.violations < max_violation_blocks then
        Hashtbl.replace t.violations block
          { v_count = 1; v_first = addr; v_write = write }
      else t.dropped_violations <- t.dropped_violations + 1

(* An access that hits no live object or element: a violation only
   inside a disciplined region, a ccmalloc page or a morphed block. *)
let[@inline never] not_live t write addr =
  if
    (match t.cc with
    | Some cc -> Ccsl.Ccmalloc.manages cc addr
    | None -> false)
    || Int_table.mem t.morph_blocks
         (A.block_index addr ~block_bytes:t.block_bytes)
  then record_violation t ~write addr

let note_hint t cc ?(site = "<unlabeled>") hint =
  let s =
    match Hashtbl.find_opt t.sites site with
    | Some s -> s
    | None ->
        let s = { hinted = 0; unmanaged = 0 } in
        Hashtbl.replace t.sites site s;
        s
  in
  s.hinted <- s.hinted + 1;
  if not (Ccsl.Ccmalloc.manages cc hint) then s.unmanaged <- s.unmanaged + 1

let wrap_allocator t (a : Alloc.Allocator.t) =
  {
    a with
    Alloc.Allocator.alloc =
      (fun ?hint ?site bytes ->
        let addr = a.Alloc.Allocator.alloc ?hint ?site bytes in
        note_alloc t addr bytes;
        (match (t.cc, hint) with
        | Some cc, Some h when not (A.is_null h) -> note_hint t cc ?site h
        | _ -> ());
        addr);
    free =
      (fun addr ->
        note_free t addr;
        a.Alloc.Allocator.free addr);
  }

(* The access check lives in this closure, next to the table it reads,
   so an access costs one closure call from the machine's fan-out and
   no further call unless the address is not live. *)
let attach t =
  if t.sub = None then
    t.sub <-
      Some
        (Machine.subscribe t.m (fun write addr ->
             if not (live t addr) then not_live t write addr));
  if t.morph_obs = None then
    t.morph_obs <-
      Some
        (Ccsl.Ccmorph.add_observer (fun obs ->
             if obs.Ccsl.Ccmorph.obs_machine == t.m then
               note_morph t ~params:obs.Ccsl.Ccmorph.obs_params
                 ~desc:obs.Ccsl.Ccmorph.obs_desc obs.Ccsl.Ccmorph.obs_result))

let detach t =
  (match t.sub with
  | Some s ->
      Machine.unsubscribe t.m s;
      t.sub <- None
  | None -> ());
  match t.morph_obs with
  | Some id ->
      Ccsl.Ccmorph.remove_observer id;
      t.morph_obs <- None
  | None -> ()

let check_counters (c : Ccsl.Ccmalloc.counters) =
  let open Ccsl.Ccmalloc in
  let ev =
    [
      ("c_hinted", float_of_int c.c_hinted);
      ("c_hinted_same_block", float_of_int c.c_hinted_same_block);
      ("c_hinted_same_page", float_of_int c.c_hinted_same_page);
      ("c_strategy_fallbacks", float_of_int c.c_strategy_fallbacks);
      ("c_hint_unmanaged", float_of_int c.c_hint_unmanaged);
      ("c_allocations", float_of_int c.c_allocations);
    ]
  in
  let fail msg =
    [
      Diag.v ~rule:"placement/counter-identity" Diag.Error ~evidence:ev
        (msg
       ^ " (the documented ccmalloc identity is c_hinted = \
          c_hinted_same_block + same-page strategy placements + \
          c_strategy_fallbacks)");
    ]
  in
  let nonneg =
    [
      c.c_allocations; c.c_frees; c.c_bytes_requested; c.c_hinted;
      c.c_hinted_same_block; c.c_hinted_same_page; c.c_hint_unmanaged;
      c.c_strategy_fallbacks; c.c_reuse_hits; c.c_pages_opened;
      c.c_blocks_opened;
    ]
  in
  if List.exists (fun n -> n < 0) nonneg then
    fail "a placement counter is negative"
  else if c.c_hinted_same_block > c.c_hinted_same_page then
    fail "more same-block than same-page placements"
  else if c.c_hinted_same_page > c.c_hinted then
    fail "more same-page placements than hinted allocations"
  else if c.c_hinted <> c.c_hinted_same_page + c.c_strategy_fallbacks then
    fail
      (Printf.sprintf
         "hinted allocations unaccounted for: c_hinted = %d but same-page \
          placements + fallbacks = %d"
         c.c_hinted
         (c.c_hinted_same_page + c.c_strategy_fallbacks))
  else if c.c_hinted + c.c_hint_unmanaged > c.c_allocations then
    fail "more hint outcomes than allocations"
  else []

let access_diags t =
  let oob =
    Hashtbl.fold
      (fun block v acc ->
        Diag.v ~rule:"placement/out-of-bounds" Diag.Error
          ~subject:(Diag.Address v.v_first)
          ~evidence:
            [
              ("accesses", float_of_int v.v_count);
              ("block_index", float_of_int block);
            ]
          (Printf.sprintf
             "%d timed %s access(es) inside a placement-disciplined region \
              hit no live object (first at 0x%x) — overflow into a size \
              header, block free space, or a freed slot"
             v.v_count
             (if v.v_write then "write" else "read")
             v.v_first)
        :: acc)
      t.violations []
  in
  let dropped =
    if t.dropped_violations > 0 then
      [
        Diag.v ~rule:"placement/out-of-bounds" Diag.Error
          ~evidence:[ ("accesses", float_of_int t.dropped_violations) ]
          (Printf.sprintf
             "%d further out-of-bounds access(es) in blocks beyond the %d \
              reported"
             t.dropped_violations max_violation_blocks);
      ]
    else []
  in
  List.rev_append t.morph_diags (oob @ dropped)

let unmanaged_diags t =
  Hashtbl.fold
    (fun site s acc ->
      if s.unmanaged > 0 then
        Diag.v ~rule:"hint/unmanaged" Diag.Warn ~subject:(Diag.Site site)
          ~evidence:
            [
              ("unmanaged_hints", float_of_int s.unmanaged);
              ("hinted_allocations", float_of_int s.hinted);
            ]
          (Printf.sprintf
             "%d of %d hints point outside the allocator's managed pages \
              (another allocator's arena?); each degrades to an unhinted \
              allocation"
             s.unmanaged s.hinted)
        :: acc
      else acc)
    t.sites []

let finalize t =
  (* The counter identity needs a cache-conscious allocator behind the
     run; without one, no hint was judged either. *)
  let cc_diags =
    match t.cc with
    | Some cc -> check_counters (Ccsl.Ccmalloc.counters cc)
    | None -> []
  in
  List.sort Diag.order (access_diags t @ cc_diags @ unmanaged_diags t)
