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
  page_aware : bool;
  weights : (Memsim.Addr.t -> float) option;
}

let default_params =
  {
    cluster = Subtree;
    color = true;
    color_frac = 0.5;
    color_first_set = 0;
    page_aware = true;
    weights = None;
  }

let debug_check_plans = ref false

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
  index_of : Int_table.t;  (* old address -> index *)
}

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
   untimed (the element is in cache/registers now), so the copy phase
   is write-only (a second scattered read pass over a structure larger
   than the cache would roughly double the reorganization cost). *)
let add m desc f a =
  if f.n = Array.length f.addrs then grow f ~elem_bytes:desc.elem_bytes;
  Int_table.replace f.index_of a f.n;
  f.addrs.(f.n) <- a;
  Machine.touch m a ~bytes:desc.elem_bytes;
  Memory.load_bytes (Machine.memory m) a f.images
    ~pos:(f.n * desc.elem_bytes) ~len:desc.elem_bytes;
  f.n <- f.n + 1

(* Discover the structure with a timed breadth-first traversal; the
   index array is its own queue.  Each element is read exactly once. *)
let discover m desc roots =
  let cap = 64 in
  let f =
    {
      n = 0;
      addrs = Array.make cap 0;
      first_kid = Array.make (cap + 1) 0;
      images = Bytes.create (cap * desc.elem_bytes);
      index_of = Int_table.create 1024;
    }
  in
  for i = 0 to Array.length roots - 1 do
    let r = roots.(i) in
    if not (A.is_null r) then begin
      if Int_table.mem f.index_of r then invalid_arg "Ccmorph: duplicate root";
      add m desc f r
    end
  done;
  let mem = Machine.memory m in
  let v = ref 0 in
  while !v < f.n do
    let a = f.addrs.(!v) in
    f.first_kid.(!v) <- f.n;
    for i = 0 to Array.length desc.kid_offsets - 1 do
      let kid = Memory.load32 mem (a + desc.kid_offsets.(i)) in
      if is_ptr desc kid then begin
        if Int_table.mem f.index_of kid then
          invalid_arg "Ccmorph: structure is not tree-shaped";
        add m desc f kid
      end
    done;
    incr v
  done;
  f.first_kid.(f.n) <- f.n;
  f

let do_morph params m desc roots =
  let block_bytes = Machine.l2_block_bytes m in
  if desc.elem_bytes > block_bytes then
    invalid_arg "Ccmorph: element larger than an L2 block";
  if desc.elem_bytes < 4 then invalid_arg "Ccmorph: element too small";
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
    (* The non-null roots took indices [0, nroots) in order; every other
       node is some node's child, so the concatenated child lists are
       [nroots .. n-1]. *)
    let nroots = f.first_kid.(0) in
    let engine = engine_of_scheme params.cluster in
    let tree =
      Layout.Tree.of_arrays
        ?weight:(Option.map (fun w v -> w old_addrs.(v)) params.weights)
        ~n
        ~kid_start:(Array.init (n + 1) (fun v -> f.first_kid.(v) - nroots))
        ~kid:(Array.init (n - nroots) (fun i -> nroots + i))
        ~roots:(Array.init nroots Fun.id) ()
    in
    let plan = engine.Layout.Engine.plan tree ~k in
    if !debug_check_plans then Layout.Plan.check plan ~n ~k;
    let blocks = plan.Layout.Plan.blocks in
    let nblocks = Array.length blocks in
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
       page-aware).  Engines whose plan order is already the intended
       page order (vEB's recursive subdivision, weighted's hottest-first
       chains) declare [Plan_order] — re-sorting those by dfs first-visit
       would destroy the very locality they computed. *)
    let block_base = Array.make nblocks A.null in
    for j = 0 to hot_cap - 1 do
      block_base.(j) <- block_addr j
    done;
    (match (engine.Layout.Engine.cold_order, params.page_aware) with
    | Layout.Engine.Dfs_first_visit, true ->
        let order = Layout.Tree.dfs_order tree in
        let seen = Bytes.make nblocks '\000' in
        for i = 0 to n - 1 do
          let j = plan.Layout.Plan.block_of_node.(order.(i)) in
          if Bytes.get seen j = '\000' then begin
            Bytes.set seen j '\001';
            if j >= hot_cap then block_base.(j) <- block_addr j
          end
        done
    | Layout.Engine.Plan_order, _ | Layout.Engine.Dfs_first_visit, false ->
        for j = hot_cap to nblocks - 1 do
          block_base.(j) <- block_addr j
        done);
    (* Copy nodes block by block; new addresses pack elements tightly
       within each block and never straddle it. *)
    let new_addrs = Array.make n A.null in
    let mem = Machine.memory m in
    for j = 0 to nblocks - 1 do
      let members = blocks.(j) and base = block_base.(j) in
      for pos = 0 to Array.length members - 1 do
        let v = members.(pos) in
        let dst = base + (pos * eb) in
        new_addrs.(v) <- dst;
        Machine.touch m ~write:true dst ~bytes:eb;
        Memory.store_bytes mem dst f.images ~pos:(v * eb) ~len:eb
      done
    done;
    (* Rewrite child (and parent) pointers in the copies.  The pointer
       slots of [v] that hold pointers are its children in slot order,
       so each new child address comes from the next child index. *)
    for v = 0 to n - 1 do
      let na = new_addrs.(v) in
      let kid = ref f.first_kid.(v) in
      for i = 0 to Array.length desc.kid_offsets - 1 do
        let slot = na + desc.kid_offsets.(i) in
        if is_ptr desc (Memory.load32 mem slot) then begin
          Machine.store_ptr m slot new_addrs.(!kid);
          incr kid
        end
      done;
      match desc.parent_offset with
      | None -> ()
      | Some off ->
          let slot = na + off in
          let old_parent = Memory.load32 mem slot in
          if is_ptr desc old_parent then begin
            let i = Int_table.find_or f.index_of old_parent ~default:(-1) in
            (* A parent outside the morphed set means this morph covers
               a subtree of a larger structure.  The old address would
               dangle into the abandoned copy, so null it; the paper's
               "liberal" trees tolerate a null predecessor at the
               reorganized region's boundary. *)
            Machine.store_ptr m slot (if i >= 0 then new_addrs.(i) else A.null)
          end
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
