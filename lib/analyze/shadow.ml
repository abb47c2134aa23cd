module A = Memsim.Addr
module Machine = Memsim.Machine
module CC = Memsim.Cache_config
module IMap = Map.Make (Int)

type violation = {
  mutable v_count : int;
  v_first : A.t;
  v_write : bool;
}

(* Cap on distinct out-of-bounds locations reported; past this the
   sanitizer keeps counting but stops allocating per-block records. *)
let max_violation_blocks = 200

type t = {
  m : Machine.t;
  block_bytes : int;
  l2 : CC.t;
  mutable cc : Ccsl.Ccmalloc.t option;
  mutable objects : int IMap.t;  (* live heap object bytes, keyed by payload *)
  mutable elems : int IMap.t;  (* morphed element bytes, keyed by base *)
  morph_blocks : (int, string) Hashtbl.t;  (* block index -> struct_id *)
  violations : (int, violation) Hashtbl.t;  (* block index -> record *)
  mutable dropped_violations : int;
  (* hot-region claims of colored structures: struct_id -> (first, sets) *)
  claims : (string, int * int) Hashtbl.t;
  mutable morph_diags : Diag.t list;  (* straddle/coloring findings *)
}

let create m =
  {
    m;
    block_bytes = Machine.l2_block_bytes m;
    l2 = (Machine.config m).Memsim.Config.l2;
    cc = None;
    objects = IMap.empty;
    elems = IMap.empty;
    morph_blocks = Hashtbl.create 1024;
    violations = Hashtbl.create 64;
    dropped_violations = 0;
    claims = Hashtbl.create 8;
    morph_diags = [];
  }

let set_ccmalloc t cc = t.cc <- Some cc

let note_alloc t payload bytes = t.objects <- IMap.add payload bytes t.objects

let note_free t payload = t.objects <- IMap.remove payload t.objects

let inside map addr =
  match IMap.find_last_opt (fun base -> base <= addr) map with
  | Some (base, bytes) -> addr < base + bytes
  | None -> false

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
        t.elems <- IMap.add a elem_bytes t.elems;
        let base = A.block_base a ~block_bytes:t.block_bytes in
        Hashtbl.replace blocks base ();
        Hashtbl.replace t.morph_blocks
          (A.block_index a ~block_bytes:t.block_bytes)
          struct_id;
        if A.offset_in_block a ~block_bytes:t.block_bytes + elem_bytes
           > t.block_bytes
        then begin
          (* the element also owns the spilled-into block *)
          Hashtbl.replace t.morph_blocks
            (A.block_index (a + elem_bytes - 1) ~block_bytes:t.block_bytes)
            struct_id;
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

let record_access t ~write addr =
  if not (inside t.objects addr || inside t.elems addr) then begin
    let disciplined =
      (match t.cc with
      | Some cc -> Ccsl.Ccmalloc.manages cc addr
      | None -> false)
      || Hashtbl.mem t.morph_blocks
           (A.block_index addr ~block_bytes:t.block_bytes)
    in
    if disciplined then record_violation t ~write addr
  end

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
      c.c_strategy_fallbacks; c.c_reuse_hits; c.c_span_allocs;
      c.c_pages_opened; c.c_blocks_opened;
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

let diags t =
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
