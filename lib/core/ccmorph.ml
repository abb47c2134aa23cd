module A = Memsim.Addr
module Machine = Memsim.Machine
module Memory = Memsim.Memory
module Int_table = Alloc.Int_table

type desc = {
  elem_bytes : int;
  kid_offsets : int array;
  parent_offset : int option;
  kid_filter : (int -> bool) option;
}

let plain_desc ~elem_bytes ~kid_offsets =
  { elem_bytes; kid_offsets; parent_offset = None; kid_filter = None }

type cluster_scheme =
  | Subtree
  | Depth_first
  | Engine of Layout.Engine.t

let engine_of_scheme = function
  | Subtree -> Layout.Engine.subtree
  | Depth_first -> Layout.Engine.depth_first
  | Engine e -> e

type params = {
  cluster : cluster_scheme;
  color : bool;
  color_frac : float;
  color_first_set : int;
}

let default_params =
  {
    cluster = Subtree;
    color = true;
    color_frac = 0.5;
    color_first_set = 0;
  }

type result = {
  new_root : Memsim.Addr.t;
  new_roots : Memsim.Addr.t array;
  nodes : int;
  blocks_used : int;
  hot_blocks : int;
  bytes_copied : int;
  pages_used : int;
}

let is_ptr desc w =
  (not (A.is_null w))
  && match desc.kid_filter with None -> true | Some f -> f w

(* The visited set: one bit per byte address, kept in 64 KB address
   regions created on first touch.  A region's 8 KB of bits is too big
   for the minor heap, so it is allocated straight in the major heap,
   and a sparse address space pays only for the regions it uses.  The
   directory covers [0, limit); every region starts as [Bytes.empty]. *)
let region_shift = 16
let region_mask = (1 lsl region_shift) - 1

let visited_create ~limit =
  Array.make ((limit + region_mask) lsr region_shift) Bytes.empty

let is_visited (dir : Bytes.t array) (a : int) =
  let r = a lsr region_shift in
  r < Array.length dir
  &&
  let bits = Array.unsafe_get dir r and o = a land region_mask in
  Bytes.length bits > 0
  && Char.code (Bytes.unsafe_get bits (o lsr 3)) land (1 lsl (o land 7)) <> 0

let mark (dir : Bytes.t array) (a : int) =
  let r = a lsr region_shift and o = a land region_mask in
  let bits =
    let b = dir.(r) in
    if Bytes.length b > 0 then b
    else begin
      let b = Bytes.make ((region_mask + 1) / 8) '\000' in
      dir.(r) <- b;
      b
    end
  in
  Bytes.set bits (o lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.get bits (o lsr 3)) lor (1 lsl (o land 7))))

(* The structure as discovery leaves it.  Elements are numbered in
   breadth-first order: element [v] was at [addrs.(v)] and its bytes are
   [images.[v * elem_bytes ..]].  BFS numbers a node's children
   consecutively, after every earlier node's, so the children of [v] are
   exactly [first_kid.(v) .. first_kid.(v + 1) - 1]. *)
type found = {
  mutable n : int;
  mutable addrs : int array;
  mutable first_kid : int array;  (* capacity + 1 slots *)
  mutable images : Bytes.t;
  visited : Bytes.t array;  (* old addresses of elements found so far *)
}

(* The word at byte [pos] of the snapshot, as [Memory.load32] reads it. *)
let word f pos = Int32.to_int (Bytes.get_int32_le f.images pos) land 0xffffffff

(* The discoverer (BFS parent) of non-root [v].  Parents are numbered in
   the order of their children, so the cursor [u] only moves forward
   over an ascending sweep of [v]. *)
let discoverer f u v =
  while f.first_kid.(!u + 1) <= v do
    incr u
  done;
  !u

let grow f ~elem_bytes =
  let cap = 2 * Array.length f.addrs in
  let addrs = Array.make cap 0 and first_kid = Array.make (cap + 1) 0 in
  Array.blit f.addrs 0 addrs 0 f.n;
  Array.blit f.first_kid 0 first_kid 0 (f.n + 1);
  let images = Bytes.create (cap * elem_bytes) in
  Bytes.blit f.images 0 images 0 (f.n * elem_bytes);
  f.addrs <- addrs;
  f.first_kid <- first_kid;
  f.images <- images

(* One timed read of the whole element; its bytes are then buffered
   untimed (the element is in cache/registers now), so every later use
   of them reads the snapshot and the copy phase is write-only (a second
   scattered read pass over a structure larger than the cache would
   roughly double the reorganization cost). *)
let add m desc f a =
  (* Discovery reserves nothing, so this is the limit the visited set's
     directory was sized for. *)
  if a < 0 || a + desc.elem_bytes > Machine.reserved_bytes m then
    invalid_arg "Ccmorph: element outside the reserved address space";
  if f.n = Array.length f.addrs then grow f ~elem_bytes:desc.elem_bytes;
  mark f.visited a;
  f.addrs.(f.n) <- a;
  Machine.touch m a ~bytes:desc.elem_bytes;
  Memory.load_bytes (Machine.memory m) a f.images
    ~pos:(f.n * desc.elem_bytes) ~len:desc.elem_bytes;
  f.n <- f.n + 1

(* Discover the structure with a timed breadth-first traversal; the
   index array is its own queue.  Each element is read exactly once. *)
let discover m desc roots =
  let cap = 64 and eb = desc.elem_bytes in
  let f =
    {
      n = 0;
      addrs = Array.make cap 0;
      first_kid = Array.make (cap + 1) 0;
      images = Bytes.create (cap * eb);
      visited = visited_create ~limit:(Machine.reserved_bytes m);
    }
  in
  for i = 0 to Array.length roots - 1 do
    let r = roots.(i) in
    if not (A.is_null r) then begin
      if is_visited f.visited r then invalid_arg "Ccmorph: duplicate root";
      add m desc f r
    end
  done;
  let v = ref 0 in
  while !v < f.n do
    f.first_kid.(!v) <- f.n;
    for i = 0 to Array.length desc.kid_offsets - 1 do
      let kid = word f ((!v * eb) + desc.kid_offsets.(i)) in
      if is_ptr desc kid then begin
        if is_visited f.visited kid then
          invalid_arg "Ccmorph: structure is not tree-shaped";
        add m desc f kid
      end
    done;
    incr v
  done;
  f.first_kid.(f.n) <- f.n;
  f

(* Pointer slots are disjoint words inside the element, so no rewrite
   of one slot changes another and the snapshot holds every slot's
   pre-morph word. *)
let check_slots desc =
  let slots =
    match desc.parent_offset with
    | None -> desc.kid_offsets
    | Some p -> Array.append desc.kid_offsets [| p |]
  in
  Array.iteri
    (fun i (a : int) ->
      if a < 0 || a + 4 > desc.elem_bytes then
        invalid_arg "Ccmorph: pointer slot outside the element";
      for j = 0 to i - 1 do
        if abs (a - slots.(j)) < 4 then
          invalid_arg "Ccmorph: overlapping pointer slots"
      done)
    slots

(* A parent word that points at an element of the morphed set must
   point at the element's discoverer; a root has none.  Then the rewrite
   below knows every parent without an address lookup. *)
let check_parents desc f ~nroots =
  match desc.parent_offset with
  | None -> ()
  | Some off ->
      let u = ref 0 in
      for v = 0 to f.n - 1 do
        let p = word f ((v * desc.elem_bytes) + off) in
        if
          is_ptr desc p && is_visited f.visited p
          && (v < nroots || p <> f.addrs.(discoverer f u v))
        then
          invalid_arg
            "Ccmorph: a parent pointer points into the structure, not at the \
             element's discoverer"
      done

let do_morph params m desc roots =
  let block_bytes = Machine.l2_block_bytes m in
  if desc.elem_bytes > block_bytes then
    invalid_arg "Ccmorph: element larger than an L2 block";
  if desc.elem_bytes < 4 then invalid_arg "Ccmorph: element too small";
  check_slots desc;
  let eb = desc.elem_bytes in
  let f = discover m desc roots in
  let n = f.n in
  if n = 0 then
    {
      new_root = A.null;
      new_roots = Array.make (Array.length roots) A.null;
      nodes = 0;
      blocks_used = 0;
      hot_blocks = 0;
      bytes_copied = 0;
      pages_used = 0;
    }
  else begin
    let k = max 1 (block_bytes / eb) in
    let old_addrs = f.addrs in
    (* The non-null roots took indices [0, nroots) in order, and discovery
       numbered the rest breadth-first: [f.first_kid] is the engines'
       tree as it stands. *)
    let nroots = f.first_kid.(0) in
    check_parents desc f ~nroots;
    let engine = engine_of_scheme params.cluster in
    let tree = Layout.Tree.of_bfs ~n ~nroots ~first_kid:f.first_kid in
    let plan = engine.Layout.Engine.plan tree ~k in
    let order = plan.Layout.Plan.order and starts = plan.Layout.Plan.starts in
    let nblocks = Layout.Plan.nblocks plan in
    (* Build the coloring once; both the address generator and the hot
       capacity below share it. *)
    let coloring =
      if params.color then
        Some
          (Coloring.v ~color_frac:params.color_frac
             ~hot_first_set:params.color_first_set
             ~l2:(Machine.config m).Memsim.Config.l2
             ~page_bytes:(Machine.page_bytes m) ())
      else None
    in
    let hot_cap =
      match coloring with
      | Some c -> min nblocks (Coloring.hot_capacity_blocks c)
      | None -> 0
    in
    let arenas = Option.map (Coloring.arenas m) coloring in
    let next = ref A.null and left = ref 0 in
    let fresh_uncolored () =
      if !left = 0 then begin
        (* Draw a page-aligned run of blocks at a time. *)
        let bytes = Machine.page_bytes m in
        next := Machine.reserve m ~bytes ~align:(Machine.page_bytes m);
        left := bytes / block_bytes
      end;
      let a = !next in
      next := a + block_bytes;
      decr left;
      a
    in
    let block_addr j =
      match arenas with
      | Some ar ->
          if j < hot_cap then Coloring.next_hot_block ar
          else Coloring.next_cold_block ar
      | None -> fresh_uncolored ()
    in
    (* Assign block base addresses: the plan's hot prefix first (the
       plan emits blocks nearest the root first, which is what coloring
       wants), then the cold blocks in the page order the engine asked
       for.  For [Dfs_first_visit] that is depth-first first-visit
       order, so a pointer path's successive cold blocks stay on the
       same virtual-memory pages (the paper's ccmorph is explicitly
       page-aware); [Plan_order] keeps the plan's block order, which is
       how the page-aware rule's contribution is measured. *)
    let block_base = Array.make nblocks A.null in
    for j = 0 to hot_cap - 1 do
      block_base.(j) <- block_addr j
    done;
    (match engine.Layout.Engine.cold_order with
    | Layout.Engine.Dfs_first_visit ->
        let dfs = Layout.Tree.dfs_order tree in
        let seen = Bytes.make nblocks '\000' in
        for i = 0 to n - 1 do
          let j = plan.Layout.Plan.block_of_node.(dfs.(i)) in
          if Bytes.get seen j = '\000' then begin
            Bytes.set seen j '\001';
            if j >= hot_cap then block_base.(j) <- block_addr j
          end
        done
    | Layout.Engine.Plan_order ->
        for j = hot_cap to nblocks - 1 do
          block_base.(j) <- block_addr j
        done);
    (* Copy nodes block by block; new addresses pack elements tightly
       within each block and never straddle it. *)
    let new_addrs = Array.make n A.null in
    let mem = Machine.memory m in
    for j = 0 to nblocks - 1 do
      let base = block_base.(j) and first = starts.(j) in
      for i = first to starts.(j + 1) - 1 do
        let v = order.(i) in
        let dst = base + ((i - first) * eb) in
        new_addrs.(v) <- dst;
        Machine.touch m ~write:true dst ~bytes:eb;
        Memory.store_bytes mem dst f.images ~pos:(v * eb) ~len:eb
      done
    done;
    (* Rewrite child (and parent) pointers in the copies, reading the
       old words from the snapshot.  The pointer slots of [v] that hold
       pointers are its children in slot order, so each new child
       address comes from the next child index. *)
    let u = ref 0 in
    for v = 0 to n - 1 do
      let na = new_addrs.(v) and at = v * eb in
      let kid = ref f.first_kid.(v) in
      for i = 0 to Array.length desc.kid_offsets - 1 do
        let off = desc.kid_offsets.(i) in
        if is_ptr desc (word f (at + off)) then begin
          Machine.store_ptr m (na + off) new_addrs.(!kid);
          incr kid
        end
      done;
      match desc.parent_offset with
      | None -> ()
      | Some off ->
          let old_parent = word f (at + off) in
          if is_ptr desc old_parent then
            (* [check_parents] leaves two cases: the discoverer, or a
               parent outside the morphed set, which means this morph
               covers a subtree of a larger structure.  The old address
               would dangle into the abandoned copy, so null it; the
               paper's "liberal" trees tolerate a null predecessor at
               the reorganized region's boundary. *)
            Machine.store_ptr m (na + off)
              (if v >= nroots && old_parent = old_addrs.(discoverer f u v)
               then new_addrs.(!u)
               else A.null)
    done;
    let root_index = ref 0 in
    let new_roots =
      Array.map
        (fun r ->
          if A.is_null r then A.null
          else begin
            let a = new_addrs.(!root_index) in
            incr root_index;
            a
          end)
        roots
    in
    let pages_used =
      let pages = Int_table.create 64 in
      for j = 0 to nblocks - 1 do
        Int_table.replace pages
          (A.page_index block_base.(j) ~page_bytes:(Machine.page_bytes m))
          0
      done;
      Int_table.length pages
    in
    {
      new_root = (if Array.length new_roots > 0 then new_roots.(0) else A.null);
      new_roots;
      nodes = n;
      blocks_used = nblocks;
      hot_blocks = hot_cap;
      bytes_copied = n * eb;
      pages_used;
    }
  end

type observation = {
  obs_machine : Memsim.Machine.t;
  obs_desc : desc;
  obs_params : params;
  obs_result : result;
}

type observer_id = int

let observers : (observer_id * (observation -> unit)) list ref = ref []
let next_observer = ref 0

let add_observer f =
  let id = !next_observer in
  incr next_observer;
  observers := !observers @ [ (id, f) ];
  id

let remove_observer id =
  observers := List.filter (fun (i, _) -> i <> id) !observers

let observed params m desc result =
  if result.nodes > 0 then
    List.iter
      (fun (_, f) ->
        f
          {
            obs_machine = m;
            obs_desc = desc;
            obs_params = params;
            obs_result = result;
          })
      !observers;
  result

let morph ?(params = default_params) m desc ~root =
  observed params m desc (do_morph params m desc [| root |])

let morph_forest ?(params = default_params) m desc ~roots =
  observed params m desc (do_morph params m desc roots)
