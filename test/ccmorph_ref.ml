(* The list- and Hashtbl-based ccmorph and layout engines as they stood
   before both moved to flat int arrays, kept here unchanged as the
   oracle for [Suite_ccmorph_flat]'s differential tests.  The only edits:
   the engines take the old closure-based [Tree] and the old
   [Plan.of_blocks], which now builds the flat [Layout.Plan] form,
   [do_morph] takes its engine as an argument (a [Layout.Engine.t] plans
   over the new flat tree) and reads its plan's blocks through
   [Plan.blocks], and the re-morph session, deleted from [Ccmorph], is
   gone here too.  Nothing outside the tests uses them. *)

module A = Memsim.Addr
module Machine = Memsim.Machine
module Plan = struct
  include Layout.Plan

  (* The flat plan whose blocks are [blocks]; [k] is the largest block,
     so only the partition is checked. *)
  let of_blocks ~n blocks =
    let nblocks = Array.length blocks in
    let starts = Array.make (nblocks + 1) 0 in
    Array.iteri (fun j b -> starts.(j + 1) <- starts.(j) + Array.length b) blocks;
    of_segments
      ~k:(Array.fold_left (fun k b -> max k (Array.length b)) 1 blocks)
      ~n ~order:(Array.concat (Array.to_list blocks)) ~starts ~nblocks

  let blocks p =
    Array.init (nblocks p) (fun j ->
        Array.sub p.order p.starts.(j) (p.starts.(j + 1) - p.starts.(j)))
end

module Tree = struct
  type t = {
    n : int;
    kids : int -> int list;
    roots : int list;
    weight : (int -> float) option;
  }

  let v ?weight ~n ~kids ~roots () =
    if n < 0 then invalid_arg "Layout.Tree.v: n < 0";
    { n; kids; roots; weight }

  let weight_of t =
    match t.weight with None -> fun _ -> 1.0 | Some w -> w

  (* Iterative preorder: the trees here are as deep as the structures we
     morph (a degenerate list is depth n), so the OCaml stack is not an
     option.  The list-as-stack pops the head; pushing a node's kids on
     top in order yields exactly the recursive left-to-right preorder. *)
  let dfs_order t =
    let order = Array.make t.n (-1) in
    let seen = Array.make t.n false in
    let pos = ref 0 in
    let stack = ref t.roots in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | v :: rest ->
          if v < 0 || v >= t.n then
            invalid_arg "Layout.Tree: node id out of range";
          if seen.(v) then invalid_arg "Layout.Tree: node reached twice";
          seen.(v) <- true;
          order.(!pos) <- v;
          incr pos;
          stack := t.kids v @ rest
    done;
    if !pos <> t.n then
      invalid_arg "Layout.Tree: nodes unreachable from roots";
    order

  let heights t =
    let order = dfs_order t in
    let h = Array.make t.n 1 in
    (* Children appear after their parent in preorder, so a reverse sweep
       sees every child's height before its parent needs it. *)
    for i = t.n - 1 downto 0 do
      let v = order.(i) in
      List.iter (fun c -> if h.(c) + 1 > h.(v) then h.(v) <- h.(c) + 1) (t.kids v)
    done;
    h
end

module Subtree = struct
  let plan (t : Tree.t) ~k =
    if k < 1 then invalid_arg "Layout.Subtree: k < 1";
    let n = t.Tree.n in
    let seen = Array.make n false in
    let blocks = ref [] in
    (* FIFO queue of cluster roots, seeded with the structure roots. *)
    let cluster_roots = Queue.create () in
    List.iter (fun r -> Queue.add r cluster_roots) t.Tree.roots;
    while not (Queue.is_empty cluster_roots) do
      let root = Queue.pop cluster_roots in
      if root < 0 || root >= n then
        invalid_arg "Layout.Subtree: node id out of range";
      if seen.(root) then invalid_arg "Layout.Subtree: node reached twice";
      (* BFS within the subtree, taking up to k nodes for this block. *)
      let members = ref [] in
      let count = ref 0 in
      let frontier = Queue.create () in
      Queue.add root frontier;
      while !count < k && not (Queue.is_empty frontier) do
        let v = Queue.pop frontier in
        if seen.(v) then invalid_arg "Layout.Subtree: node reached twice";
        seen.(v) <- true;
        members := v :: !members;
        incr count;
        List.iter (fun c -> Queue.add c frontier) (t.Tree.kids v)
      done;
      (* Whatever remains on the frontier starts future clusters. *)
      Queue.iter (fun v -> Queue.add v cluster_roots) frontier;
      blocks := Array.of_list (List.rev !members) :: !blocks
    done;
    (* Consecutive clusters smaller than k share a block: deep in the
       structure subtrees run out of descendants (leaves cluster alone) and
       forest roots may head short chains; packing them in emission order
       preserves the near-root-first property while restoring density. *)
    let blocks =
      List.fold_left
        (fun acc cluster ->
          match acc with
          | prev :: rest when Array.length prev + Array.length cluster <= k ->
              Array.append prev cluster :: rest
          | _ -> cluster :: acc)
        []
        (List.rev !blocks)
      |> List.rev
    in
    Array.iteri
      (fun i s ->
        if not s then
          invalid_arg
            (Printf.sprintf "Layout.Subtree: node %d unreachable from roots" i))
      seen;
    Plan.of_blocks ~n (Array.of_list blocks)
end

module Depth_first = struct
  let plan (t : Tree.t) ~k = Plan.chunk ~n:t.Tree.n ~order:(Tree.dfs_order t) ~k
end

module Veb = struct
  (* Descendants of [r] at depth exactly [d] (relative to [r]), left to
     right.  Iterative: the subtree can be a depth-n chain. *)
  let at_depth kids r d =
    let out = ref [] in
    let stack = ref [ (r, 0) ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | (v, dv) :: rest ->
          stack := rest;
          if dv = d then out := v :: !out
          else stack := List.map (fun c -> (c, dv + 1)) (kids v) @ rest
    done;
    List.rev !out

  let plan (t : Tree.t) ~k =
    if k < 1 then invalid_arg "Layout.Veb: k < 1";
    let n = t.Tree.n in
    (* heights both drives the split rule and pre-validates the tree (it
       runs a full spanning traversal). *)
    let heights = Tree.heights t in
    let order = Array.make n (-1) in
    let pos = ref 0 in
    (* [lay r limit] emits every descendant of [r] at depth < limit:
       first the top [limit/2] levels recursively, then each depth-
       [limit/2] subtree recursively.  limit >= 2 implies 1 <= top < limit,
       so both halves shrink and the recursion depth is O(log limit). *)
    let rec lay r limit =
      if limit <= 1 then begin
        order.(!pos) <- r;
        incr pos
      end
      else begin
        let top = limit / 2 in
        lay r top;
        List.iter
          (fun b -> lay b (min (limit - top) heights.(b)))
          (at_depth t.Tree.kids r top)
      end
    in
    List.iter (fun r -> lay r heights.(r)) t.Tree.roots;
    Plan.chunk ~n ~order ~k
end

module Weighted = struct
  (* Binary max-heap over (weight, id): higher weight first, lower id on
     ties, so the layout is deterministic for any weight function. *)
  type heap = { mutable a : (float * int) array; mutable len : int }

  let heap_create () = { a = Array.make 64 (0., -1); len = 0 }

  (* [x] has lower priority than [y] *)
  let below (w1, i1) (w2, i2) = w1 < w2 || (w1 = w2 && i1 > i2)

  let heap_push h x =
    if h.len = Array.length h.a then begin
      let a = Array.make (2 * h.len) (0., -1) in
      Array.blit h.a 0 a 0 h.len;
      h.a <- a
    end;
    let i = ref h.len in
    h.len <- h.len + 1;
    h.a.(!i) <- x;
    while !i > 0 && below h.a.((!i - 1) / 2) h.a.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let heap_pop h =
    let top = h.a.(0) in
    h.len <- h.len - 1;
    h.a.(0) <- h.a.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let best = ref !i in
      if l < h.len && below h.a.(!best) h.a.(l) then best := l;
      if r < h.len && below h.a.(!best) h.a.(r) then best := r;
      if !best = !i then continue := false
      else begin
        let tmp = h.a.(!best) in
        h.a.(!best) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !best
      end
    done;
    snd top

  let plan (t : Tree.t) ~k =
    if k < 1 then invalid_arg "Layout.Weighted: k < 1";
    let n = t.Tree.n in
    let w = Tree.weight_of t in
    let placed = Array.make n false in
    let frontier = heap_create () in
    let push v =
      if v < 0 || v >= n then invalid_arg "Layout.Weighted: node id out of range";
      heap_push frontier (w v, v)
    in
    List.iter push t.Tree.roots;
    let blocks = ref [] in
    let place members v =
      if placed.(v) then invalid_arg "Layout.Weighted: node reached twice";
      placed.(v) <- true;
      members := v :: !members
    in
    while frontier.len > 0 do
      let members = ref [] and count = ref 0 in
      let cur = ref (Some (heap_pop frontier)) in
      while !count < k && !cur <> None do
        let v = Option.get !cur in
        place members v;
        incr count;
        (* The hottest child continues the chain in this block; its
           siblings join the frontier.  When the chain bottoms out but
           the block still has room, refill from the globally hottest
           frontier node — merging under-full hot paths keeps density. *)
        let hottest =
          List.fold_left
            (fun best c ->
              match best with
              | Some b when w c <= w b -> best
              | _ -> Some c)
            None (t.Tree.kids v)
        in
        match hottest with
        | None ->
            cur :=
              if !count < k && frontier.len > 0 then Some (heap_pop frontier)
              else None
        | Some hot ->
            List.iter (fun c -> if c <> hot then push c) (t.Tree.kids v);
            if !count < k then cur := Some hot
            else begin
              push hot;
              cur := None
            end
      done;
      blocks := Array.of_list (List.rev !members) :: !blocks
    done;
    for v = 0 to n - 1 do
      if not placed.(v) then
        invalid_arg
          (Printf.sprintf "Layout.Weighted: node %d unreachable from roots" v)
    done;
    Plan.of_blocks ~n (Array.of_list (List.rev !blocks))
end

type engine = {
  name : string;
  cold_order : Layout.Engine.cold_order;
  plan : Tree.t -> k:int -> Plan.t;
}

let engines =
  [
    { name = "subtree"; cold_order = Layout.Engine.Dfs_first_visit; plan = Subtree.plan };
    { name = "depth_first"; cold_order = Layout.Engine.Dfs_first_visit; plan = Depth_first.plan };
    { name = "veb"; cold_order = Layout.Engine.Plan_order; plan = Veb.plan };
    { name = "weighted"; cold_order = Layout.Engine.Plan_order; plan = Weighted.plan };
  ]

let engine_of_name name = List.find (fun e -> e.name = name) engines

module Ccmorph = struct
  module Coloring = Ccsl.Coloring

  type desc = Ccsl.Ccmorph.desc = {
    elem_bytes : int;
    kid_offsets : int array;
    parent_offset : int option;
    kid_filter : (int -> bool) option;
  }

  type params = Ccsl.Ccmorph.params = {
    cluster : Ccsl.Ccmorph.cluster_scheme;
    color : bool;
    color_frac : float;
    color_first_set : int;
    weights : (Memsim.Addr.t -> float) option;
  }

  type result = Ccsl.Ccmorph.result = {
    new_root : Memsim.Addr.t;
    new_roots : Memsim.Addr.t array;
    nodes : int;
    blocks_used : int;
    hot_blocks : int;
    bytes_copied : int;
    pages_used : int;
  }

  (* Discover the structure with a timed breadth-first traversal.  Each
     element is read exactly once: its bytes are buffered so the copy
     phase is write-only (a second scattered read pass over a structure
     larger than the cache would roughly double the reorganization
     cost). *)
  let discover m desc roots =
    let is_ptr w =
      (not (A.is_null w))
      && match desc.kid_filter with None -> true | Some f -> f w
    in
    let index_of = Hashtbl.create 1024 in
    let addrs = ref [] in
    let images = ref [] in
    let n = ref 0 in
    let q = Queue.create () in
    let mem = Machine.memory m in
    let snapshot addr =
      (* one timed read of the whole element; field extraction below is
         untimed (the element is in cache/registers now) *)
      Machine.touch m addr ~bytes:desc.elem_bytes;
      let img = Bytes.create desc.elem_bytes in
      for i = 0 to desc.elem_bytes - 1 do
        Bytes.unsafe_set img i (Char.unsafe_chr (Memsim.Memory.load8 mem (addr + i)))
      done;
      img
    in
    Array.iter
      (fun r ->
        if not (A.is_null r) then begin
          if Hashtbl.mem index_of r then
            invalid_arg "Ccmorph: duplicate root";
          Hashtbl.replace index_of r !n;
          addrs := r :: !addrs;
          images := snapshot r :: !images;
          incr n;
          Queue.add r q
        end)
      roots;
    let kids_rev = ref [] in
    (* BFS assigns indices in discovery order, so kids lists arrive in the
       same order as indices; collect per-node kid lists as we pop. *)
    while not (Queue.is_empty q) do
      let addr = Queue.pop q in
      let my_kids = ref [] in
      Array.iter
        (fun off ->
          let kid = Machine.uload32 m (addr + off) in
          if is_ptr kid then begin
            if Hashtbl.mem index_of kid then
              invalid_arg "Ccmorph: structure is not tree-shaped";
            Hashtbl.replace index_of kid !n;
            addrs := kid :: !addrs;
            images := snapshot kid :: !images;
            my_kids := !n :: !my_kids;
            incr n;
            Queue.add kid q
          end)
        desc.kid_offsets;
      kids_rev := List.rev !my_kids :: !kids_rev
    done;
    let addrs = Array.of_list (List.rev !addrs) in
    let images = Array.of_list (List.rev !images) in
    let kids = Array.of_list (List.rev !kids_rev) in
    (addrs, images, kids, index_of)

  let do_morph ~engine params m desc roots =
    let block_bytes = Machine.l2_block_bytes m in
    if desc.elem_bytes > block_bytes then
      invalid_arg "Ccmorph: element larger than an L2 block";
    if desc.elem_bytes < 4 then invalid_arg "Ccmorph: element too small";
    let old_addrs, images, kids, index_of = discover m desc roots in
    let n = Array.length old_addrs in
    if n = 0 then
      {
        new_root = A.null;
        new_roots = Array.map (fun _ -> A.null) roots;
        nodes = 0;
        blocks_used = 0;
        hot_blocks = 0;
        bytes_copied = 0;
        pages_used = 0;
      }
    else begin
      let k = max 1 (block_bytes / desc.elem_bytes) in
      let root_ids =
        Array.to_list roots
        |> List.filter_map (fun r ->
               if A.is_null r then None else Some (Hashtbl.find index_of r))
      in
      let tree =
        Tree.v
          ?weight:
            (Option.map (fun f v -> f old_addrs.(v)) params.weights)
          ~n
          ~kids:(fun v -> kids.(v))
          ~roots:root_ids ()
      in
      let plan = engine.plan tree ~k in
      let nblocks = Plan.nblocks plan in
      (* Address-assignment order: the plan emits blocks breadth-first
         (nearest the root first), which is what coloring wants for its hot
         prefix; the remaining blocks are laid out in depth-first
         first-visit order so that a pointer path's successive cold blocks
         stay on the same virtual-memory pages (the paper's ccmorph is
         explicitly page-aware). *)
      let dfs_block_order =
        let seen = Array.make nblocks false in
        let out = ref [] in
        let rec go v =
          let b = plan.Layout.Plan.block_of_node.(v) in
          if not seen.(b) then begin
            seen.(b) <- true;
            out := b :: !out
          end;
          List.iter go kids.(v)
        in
        List.iter go root_ids;
        Array.of_list (List.rev !out)
      in
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
      let hot_blocks = ref 0 in
      let block_addr : int -> A.t =
        match coloring with
        | Some coloring ->
            let ar = lazy (Coloring.arenas m coloring) in
            fun j ->
              if j < hot_cap then begin
                incr hot_blocks;
                Coloring.next_hot_block (Lazy.force ar)
              end
              else Coloring.next_cold_block (Lazy.force ar)
        | None ->
            let next = ref A.null in
            let left = ref 0 in
            let fresh () =
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
            fun _ -> fresh ()
      in
      (* Assign block base addresses: the plan's hot prefix first, then
         the cold blocks in the page order the engine asked for.  Engines
         whose plan order is already the intended page order (vEB's
         recursive subdivision, weighted's hottest-first chains) declare
         [Plan_order] — re-sorting those by dfs first-visit would destroy
         the very locality they computed. *)
      let block_base = Array.make nblocks A.null in
      for j = 0 to hot_cap - 1 do
        block_base.(j) <- block_addr j
      done;
      (match engine.cold_order with
      | Layout.Engine.Dfs_first_visit ->
          Array.iter
            (fun j -> if j >= hot_cap then block_base.(j) <- block_addr j)
            dfs_block_order
      | Layout.Engine.Plan_order ->
          for j = hot_cap to nblocks - 1 do
            block_base.(j) <- block_addr j
          done);
      (* Copy nodes block by block; new addresses pack elements tightly
         within each block and never straddle it. *)
      let new_addrs = Array.make n A.null in
      let bytes_copied = ref 0 in
      let mem = Machine.memory m in
      Array.iteri
        (fun j members ->
          let base = block_base.(j) in
          Array.iteri
            (fun pos v ->
              let dst = base + (pos * desc.elem_bytes) in
              new_addrs.(v) <- dst;
              Machine.touch m ~write:true dst ~bytes:desc.elem_bytes;
              let img = images.(v) in
              for i = 0 to desc.elem_bytes - 1 do
                Memsim.Memory.store8 mem (dst + i) (Char.code (Bytes.unsafe_get img i))
              done;
              bytes_copied := !bytes_copied + desc.elem_bytes)
            members)
        (Plan.blocks plan);
      (* Rewrite child (and parent) pointers in the copies. *)
      let rewrite v =
        let na = new_addrs.(v) in
        Array.iter
          (fun off ->
            let old_kid = Machine.uload32 m (na + off) in
            let is_ptr =
              (not (A.is_null old_kid))
              && match desc.kid_filter with None -> true | Some f -> f old_kid
            in
            if is_ptr then
              Machine.store_ptr m (na + off)
                new_addrs.(Hashtbl.find index_of old_kid))
          desc.kid_offsets;
        match desc.parent_offset with
        | None -> ()
        | Some off -> (
            let old_parent = Machine.uload32 m (na + off) in
            let is_ptr =
              (not (A.is_null old_parent))
              &&
              match desc.kid_filter with None -> true | Some f -> f old_parent
            in
            if is_ptr then
              match Hashtbl.find_opt index_of old_parent with
              | Some i -> Machine.store_ptr m (na + off) new_addrs.(i)
              | None ->
                  (* The parent lies outside the morphed set — this morph
                     covers a subtree of a larger structure.  The old
                     address would dangle into the abandoned copy, so null
                     it; the paper's "liberal" trees tolerate a null
                     predecessor at the reorganized region's boundary. *)
                  Machine.store_ptr m (na + off) A.null)
      in
      for v = 0 to n - 1 do
        rewrite v
      done;
      let new_roots =
        Array.map
          (fun r ->
            if A.is_null r then A.null
            else new_addrs.(Hashtbl.find index_of r))
          roots
      in
      let pages_used =
        let pages = Hashtbl.create 64 in
        Array.iter
          (fun base ->
            Hashtbl.replace pages
              (A.page_index base ~page_bytes:(Machine.page_bytes m)) ())
          block_base;
        Hashtbl.length pages
      in
      {
        new_root = (if Array.length new_roots > 0 then new_roots.(0) else A.null);
        new_roots;
        nodes = n;
        blocks_used = nblocks;
        hot_blocks = !hot_blocks;
        bytes_copied = !bytes_copied;
        pages_used;
      }
    end

  let morph_forest ?(params = Ccsl.Ccmorph.default_params) ~engine m desc
      ~roots =
    do_morph ~engine params m desc roots
end
