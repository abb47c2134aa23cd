(* Tests for the ccmorph reorganizer: semantics preservation, clustering
   and coloring placement, and overhead accounting. *)

module Machine = Memsim.Machine
module Config = Memsim.Config
module A = Memsim.Addr
module CC = Memsim.Cache_config
module Ccmorph = Ccsl.Ccmorph
module Bst = Structures.Bst
module Rng = Workload.Rng

let mk () = Machine.create (Config.tiny ())

let build_tree m n seed =
  let keys = Array.init n (fun i -> i * 3) in
  Bst.build m (Bst.Random (Rng.create seed)) ~keys

let test_semantics_preserved () =
  let m = mk () in
  let t = build_tree m 200 1 in
  let before = Bst.to_sorted_list t in
  let r =
    Ccmorph.morph m (Bst.desc ~elem_bytes:Bst.default_elem_bytes) ~root:t.Bst.root
  in
  let t' = Bst.of_root m ~elem_bytes:Bst.default_elem_bytes ~n:200 r.Ccmorph.new_root in
  Alcotest.(check (list int)) "inorder identical" before (Bst.to_sorted_list t');
  Alcotest.(check int) "all nodes copied" 200 r.Ccmorph.nodes;
  for k = 0 to 620 do
    Alcotest.(check bool) "membership agrees" (Bst.mem_oracle t k)
      (Bst.mem_oracle t' k)
  done

let test_old_copy_untouched () =
  let m = mk () in
  let t = build_tree m 100 2 in
  let before = Bst.to_sorted_list t in
  let _ = Ccmorph.morph m (Bst.desc ~elem_bytes:20) ~root:t.Bst.root in
  Alcotest.(check (list int)) "original intact" before (Bst.to_sorted_list t)

let test_clustering_parent_child_same_block () =
  let m = mk () in
  (* 20-byte nodes, 64-byte blocks: k = 3, so blocks hold parent + kids *)
  let t = build_tree m 255 3 in
  let r =
    Ccmorph.morph ~params:{ Ccmorph.default_params with color = false } m
      (Bst.desc ~elem_bytes:20) ~root:t.Bst.root
  in
  let bb = Machine.l2_block_bytes m in
  let root = r.Ccmorph.new_root in
  let left = Machine.uload32 m (root + 4) in
  let right = Machine.uload32 m (root + 8) in
  Alcotest.(check int) "left with parent"
    (A.block_index root ~block_bytes:bb)
    (A.block_index left ~block_bytes:bb);
  Alcotest.(check int) "right with parent"
    (A.block_index root ~block_bytes:bb)
    (A.block_index right ~block_bytes:bb);
  (* 255 nodes / 3 per block = 85 blocks *)
  Alcotest.(check int) "block count" 85 r.Ccmorph.blocks_used

let test_coloring_hot_near_root () =
  let m = mk () in
  let t = build_tree m 4095 4 in
  let r = Ccmorph.morph m (Bst.desc ~elem_bytes:20) ~root:t.Bst.root in
  Alcotest.(check bool) "some hot blocks" true (r.Ccmorph.hot_blocks > 0);
  let l2 = (Machine.config m).Memsim.Config.l2 in
  let coloring =
    Ccsl.Coloring.v ~l2 ~page_bytes:(Machine.page_bytes m) ()
  in
  let p = coloring.Ccsl.Coloring.hot_sets in
  (* walk the top of the new tree: the first levels must be hot *)
  let rec check_hot node depth =
    if depth > 0 && not (A.is_null node) then begin
      Alcotest.(check bool) "top node hot" true
        (CC.set_of_addr l2 node < p);
      check_hot (Machine.uload32 m (node + 4)) (depth - 1);
      check_hot (Machine.uload32 m (node + 8)) (depth - 1)
    end
  in
  check_hot r.Ccmorph.new_root 4

let test_depth_first_scheme () =
  let m = mk () in
  let t = build_tree m 63 5 in
  let params =
    { Ccmorph.default_params with Ccmorph.cluster = Ccmorph.Depth_first;
      color = false }
  in
  let r = Ccmorph.morph ~params m (Bst.desc ~elem_bytes:20) ~root:t.Bst.root in
  (* In a depth-first chunking, the root and its left child share block 0 *)
  let bb = Machine.l2_block_bytes m in
  let root = r.Ccmorph.new_root in
  let left = Machine.uload32 m (root + 4) in
  Alcotest.(check int) "root+left together"
    (A.block_index root ~block_bytes:bb)
    (A.block_index left ~block_bytes:bb);
  let t' = Bst.of_root m ~elem_bytes:20 ~n:63 root in
  Alcotest.(check int) "still a valid tree" 63
    (List.length (Bst.to_sorted_list t'))

let test_morph_charges_cycles () =
  let m = mk () in
  let t = build_tree m 500 6 in
  Machine.reset_measurement m;
  let _ = Ccmorph.morph m (Bst.desc ~elem_bytes:20) ~root:t.Bst.root in
  Alcotest.(check bool) "reorganization is not free" true (Machine.cycles m > 500)

let test_morph_list () =
  let m = mk () in
  let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
  let l = Structures.Linked_list.create m ~alloc in
  for i = 1 to 50 do
    ignore (Structures.Linked_list.append l i)
  done;
  let r =
    Ccmorph.morph m (Structures.Linked_list.desc ~elem_bytes:12) ~root:l.Structures.Linked_list.head
  in
  Structures.Linked_list.set_head l r.Ccmorph.new_root ~length:50;
  Structures.Linked_list.check l;
  Alcotest.(check (list int)) "payloads preserved"
    (List.init 50 (fun i -> i + 1))
    (Structures.Linked_list.to_payload_list l);
  (* 12-byte elements, 64-byte blocks: 5 per block, consecutive *)
  let bb = Machine.l2_block_bytes m in
  let head = r.Ccmorph.new_root in
  let second = Machine.uload32 m head in
  Alcotest.(check int) "head and successor co-located"
    (A.block_index head ~block_bytes:bb)
    (A.block_index second ~block_bytes:bb)

let test_morph_forest () =
  let m = mk () in
  let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
  let mk_list n start =
    let l = Structures.Linked_list.create m ~alloc in
    for i = 0 to n - 1 do
      ignore (Structures.Linked_list.append l (start + i))
    done;
    l
  in
  let lists = [| mk_list 3 0; mk_list 4 100; mk_list 2 200 |] in
  let roots =
    Array.map (fun l -> l.Structures.Linked_list.head) lists
  in
  let r =
    Ccmorph.morph_forest m (Structures.Linked_list.desc ~elem_bytes:12) ~roots
  in
  Alcotest.(check int) "9 nodes" 9 r.Ccmorph.nodes;
  Array.iteri
    (fun i l ->
      Structures.Linked_list.set_head l r.Ccmorph.new_roots.(i)
        ~length:l.Structures.Linked_list.length;
      Structures.Linked_list.check l)
    lists;
  Alcotest.(check (list int)) "list 1" [ 100; 101; 102; 103 ]
    (Structures.Linked_list.to_payload_list lists.(1))

let test_null_and_errors () =
  let m = mk () in
  let r = Ccmorph.morph m (Bst.desc ~elem_bytes:20) ~root:A.null in
  Alcotest.(check int) "empty morph" 0 r.Ccmorph.nodes;
  Alcotest.(check int) "null root out" 0 r.Ccmorph.new_root;
  Alcotest.check_raises "oversized element"
    (Invalid_argument "Ccmorph: element larger than an L2 block") (fun () ->
      ignore
        (Ccmorph.morph m
           (Ccmorph.plain_desc ~elem_bytes:100 ~kid_offsets:[| 4 |])
           ~root:4096));
  (* a cyclic "tree" must be rejected, not loop forever *)
  let bump = Alloc.Bump.create m in
  let a = Alloc.Bump.alloc bump 12 and b = Alloc.Bump.alloc bump 12 in
  Machine.ustore32 m (a + 4) b;
  Machine.ustore32 m (b + 4) a;
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Ccmorph: structure is not tree-shaped") (fun () ->
      ignore
        (Ccmorph.morph m
           (Ccmorph.plain_desc ~elem_bytes:12 ~kid_offsets:[| 4 |])
           ~root:a));
  (* an acyclic DAG is just as ill-formed: a diamond reaches one element
     twice, which would duplicate it in the copy *)
  let top = Alloc.Bump.alloc bump 12
  and l = Alloc.Bump.alloc bump 12
  and r = Alloc.Bump.alloc bump 12
  and shared = Alloc.Bump.alloc bump 12 in
  Machine.ustore32 m (top + 4) l;
  Machine.ustore32 m (top + 8) r;
  Machine.ustore32 m (l + 4) shared;
  Machine.ustore32 m (r + 4) shared;
  Alcotest.check_raises "diamond rejected"
    (Invalid_argument "Ccmorph: structure is not tree-shaped") (fun () ->
      ignore
        (Ccmorph.morph m
           (Ccmorph.plain_desc ~elem_bytes:12 ~kid_offsets:[| 4; 8 |])
           ~root:top));
  (* an element exactly one block wide is the legal maximum *)
  let bb = Machine.l2_block_bytes m in
  let big = Alloc.Bump.alloc bump bb in
  let r =
    Ccmorph.morph m
      (Ccmorph.plain_desc ~elem_bytes:bb ~kid_offsets:[| 4 |])
      ~root:big
  in
  Alcotest.(check int) "block-sized element morphs" 1 r.Ccmorph.nodes;
  Alcotest.check_raises "element one byte over the block size"
    (Invalid_argument "Ccmorph: element larger than an L2 block") (fun () ->
      ignore
        (Ccmorph.morph m
           (Ccmorph.plain_desc ~elem_bytes:(bb + 1) ~kid_offsets:[| 4 |])
           ~root:big))

let test_color_first_set () =
  let m = mk () in
  let t = build_tree m 1023 9 in
  let params =
    { Ccmorph.default_params with
      Ccmorph.color_frac = 0.25;
      color_first_set = 64 }
  in
  let r = Ccmorph.morph ~params m (Bst.desc ~elem_bytes:20) ~root:t.Bst.root in
  let l2 = (Machine.config m).Memsim.Config.l2 in
  (* the new root must sit in the requested hot region [64, 128) *)
  let set = CC.set_of_addr l2 r.Ccmorph.new_root in
  Alcotest.(check bool) "root in offset hot region" true (set >= 64 && set < 128);
  let t' = Bst.of_root m ~elem_bytes:20 ~n:1023 r.Ccmorph.new_root in
  Alcotest.(check int) "semantics intact" 1023
    (List.length (Bst.to_sorted_list t'))

let test_cold_order () =
  (* subtree clustering with either cold-block order preserves
     semantics; layouts differ *)
  let run cold_order =
    let m = mk () in
    let t = build_tree m 511 10 in
    let params =
      {
        Ccmorph.default_params with
        Ccmorph.cluster = Ccmorph.Engine { Layout.Engine.subtree with cold_order };
      }
    in
    let r = Ccmorph.morph ~params m (Bst.desc ~elem_bytes:20) ~root:t.Bst.root in
    let t' = Bst.of_root m ~elem_bytes:20 ~n:511 r.Ccmorph.new_root in
    (r.Ccmorph.new_root, Bst.to_sorted_list t')
  in
  let root_dfs, dfs = run Layout.Engine.Dfs_first_visit
  and root_plan, plan = run Layout.Engine.Plan_order in
  Alcotest.(check (list int)) "same inorder either way" dfs plan;
  Alcotest.(check int) "same hot root block" root_dfs root_plan

(* Regression: morphing a *subtree* of a larger structure used to raise
   Not_found in the parent-pointer rewrite — the root's predecessor is
   outside the morphed set.  It must morph cleanly and null the boundary
   back-pointer rather than leave it dangling into the abandoned copy. *)
let test_morph_subtree_of_larger_structure () =
  let m = mk () in
  let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
  let l = Structures.Linked_list.create m ~alloc in
  for i = 1 to 10 do
    ignore (Structures.Linked_list.append l i)
  done;
  (* the third node: its back pointer targets a node we do not morph *)
  let n1 = l.Structures.Linked_list.head in
  let n2 = Machine.uload32 m (n1 + Structures.Linked_list.off_forward) in
  let n3 = Machine.uload32 m (n2 + Structures.Linked_list.off_forward) in
  let r =
    Ccmorph.morph m (Structures.Linked_list.desc ~elem_bytes:12) ~root:n3
  in
  Alcotest.(check int) "tail morphed" 8 r.Ccmorph.nodes;
  Alcotest.(check int) "boundary back-pointer nulled" 0
    (Machine.uload32 m (r.Ccmorph.new_root + Structures.Linked_list.off_back));
  (* interior back pointers are rewritten as usual *)
  let second =
    Machine.uload32 m (r.Ccmorph.new_root + Structures.Linked_list.off_forward)
  in
  Alcotest.(check int) "interior back-pointer rewritten" r.Ccmorph.new_root
    (Machine.uload32 m (second + Structures.Linked_list.off_back));
  (* payloads 3..10 survive along the forward chain *)
  let rec walk a acc =
    if A.is_null a then List.rev acc
    else
      walk
        (Machine.uload32 m (a + Structures.Linked_list.off_forward))
        (Machine.uload32 m (a + Structures.Linked_list.off_data) :: acc)
  in
  Alcotest.(check (list int)) "payloads preserved"
    [ 3; 4; 5; 6; 7; 8; 9; 10 ]
    (walk r.Ccmorph.new_root [])

(* The kid_filter must be honored for the parent word too: a tagged
   non-pointer value in the parent slot is copied verbatim, not chased
   (which used to crash) or nulled. *)
let test_parent_slot_respects_kid_filter () =
  let m = mk () in
  let bump = Alloc.Bump.create m in
  let a = Alloc.Bump.alloc bump 12 and b = Alloc.Bump.alloc bump 12 in
  Machine.ustore32 m (a + 4) b;  (* child pointer *)
  Machine.ustore32 m (a + 8) 9;  (* tagged (odd) inline value, not a pointer *)
  Machine.ustore32 m (b + 4) 0;
  Machine.ustore32 m (b + 8) a;  (* a real parent pointer *)
  let desc =
    {
      Ccmorph.elem_bytes = 12;
      kid_offsets = [| 4 |];
      parent_offset = Some 8;
      kid_filter = Some (fun w -> w land 1 = 0);
    }
  in
  let r = Ccmorph.morph m desc ~root:a in
  Alcotest.(check int) "two nodes" 2 r.Ccmorph.nodes;
  let a' = r.Ccmorph.new_root in
  let b' = Machine.uload32 m (a' + 4) in
  Alcotest.(check int) "tagged parent slot preserved verbatim" 9
    (Machine.uload32 m (a' + 8));
  Alcotest.(check int) "real parent pointer rewritten" a'
    (Machine.uload32 m (b' + 8))

(* Pointer slots must be disjoint words inside the element: discovery
   and the rewrite read every slot from the one snapshot of the element,
   which equals memory only when no slot's rewrite overwrites another. *)
let test_slots_disjoint_words () =
  let m = mk () in
  let bump = Alloc.Bump.create m in
  let a = Alloc.Bump.alloc bump 12 in
  let before = Machine.cycles m in
  List.iter
    (fun (what, kid_offsets, parent_offset, msg) ->
      Alcotest.check_raises what (Invalid_argument msg) (fun () ->
          ignore
            (Ccmorph.morph m
               {
                 Ccmorph.elem_bytes = 12;
                 kid_offsets;
                 parent_offset;
                 kid_filter = None;
               }
               ~root:a)))
    [
      ("kid slots overlap", [| 4; 6 |], None, "Ccmorph: overlapping pointer slots");
      ("kid slot twice", [| 4; 4 |], None, "Ccmorph: overlapping pointer slots");
      ( "parent slot overlaps a kid slot",
        [| 0; 4 |],
        Some 7,
        "Ccmorph: overlapping pointer slots" );
      ( "kid slot past the element",
        [| 4; 9 |],
        None,
        "Ccmorph: pointer slot outside the element" );
      ( "negative kid slot",
        [| -4 |],
        None,
        "Ccmorph: pointer slot outside the element" );
      ( "parent slot past the element",
        [| 0 |],
        Some 12,
        "Ccmorph: pointer slot outside the element" );
    ];
  Alcotest.(check int) "rejected before any timed access" before
    (Machine.cycles m)

(* Every element must lie wholly below [Machine.reserved_bytes]: a child
   pointer past it (or one whose element crosses it) names memory no
   allocator handed out. *)
let test_child_outside_reservation () =
  let m = mk () in
  let bump = Alloc.Bump.create m in
  let a = Alloc.Bump.alloc bump 12 in
  let desc = Ccmorph.plain_desc ~elem_bytes:12 ~kid_offsets:[| 4 |] in
  List.iter
    (fun (what, kid) ->
      Machine.ustore32 m (a + 4) kid;
      Alcotest.check_raises what
        (Invalid_argument "Ccmorph: element outside the reserved address space")
        (fun () -> ignore (Ccmorph.morph m desc ~root:a)))
    [
      ("child past the reservation", Machine.reserved_bytes m + 4096);
      ("child crossing the reservation's end", Machine.reserved_bytes m - 8);
    ];
  Machine.ustore32 m (a + 4) 0;
  Alcotest.(check int) "a lone root inside it morphs" 1
    (Ccmorph.morph m desc ~root:a).Ccmorph.nodes

(* A parent word that points into the morphed set must point at the
   element's discoverer, and a root's must not point into the set at
   all; the morph raises before it reserves or copies anything. *)
let test_parent_not_discoverer () =
  let m = mk () in
  let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
  let l = Structures.Linked_list.create m ~alloc in
  for i = 1 to 4 do
    ignore (Structures.Linked_list.append l i)
  done;
  let desc = Structures.Linked_list.desc ~elem_bytes:12 in
  let fwd a = Machine.uload32 m (a + Structures.Linked_list.off_forward) in
  let n1 = l.Structures.Linked_list.head in
  let n2 = fwd n1 in
  let n3 = fwd n2 in
  let n4 = fwd n3 in
  let back = Structures.Linked_list.off_back in
  List.iter
    (fun (what, node, parent) ->
      let saved = Machine.uload32 m (node + back) in
      Machine.ustore32 m (node + back) parent;
      let reserved = Machine.reserved_bytes m in
      Alcotest.check_raises what
        (Invalid_argument
           "Ccmorph: a parent pointer points into the structure, not at the \
            element's discoverer")
        (fun () -> ignore (Ccmorph.morph m desc ~root:n1));
      Alcotest.(check int) (what ^ ": nothing reserved") reserved
        (Machine.reserved_bytes m);
      Machine.ustore32 m (node + back) saved)
    [
      ("parent is the grandparent", n3, n1);
      ("parent is a child", n2, n3);
      ("parent is the element itself", n4, n4);
      ("root's parent inside the structure", n1, n4);
    ];
  (* a parent word into the middle of an element names no element *)
  Machine.ustore32 m (n3 + back) (n2 + 4);
  let r = Ccmorph.morph m desc ~root:n1 in
  Alcotest.(check int) "interior parent pointer nulled" 0
    (Machine.uload32 m (fwd (fwd r.Ccmorph.new_root) + back))

(* Re-morphing an already-morphed structure (health re-morphs its lists
   on a fixed schedule): each morph copies the whole structure into
   freshly reserved space, so the root moves, the reservation grows, and
   the keys survive every round. *)
let test_remorph_moves_and_preserves () =
  let m = mk () in
  let t = build_tree m 255 11 in
  let before = Bst.to_sorted_list t in
  let desc = Bst.desc ~elem_bytes:20 in
  let root = ref t.Bst.root in
  for round = 1 to 3 do
    let reserved = Machine.reserved_bytes m in
    let r = Ccmorph.morph m desc ~root:!root in
    let where = Printf.sprintf "re-morph %d: " round in
    Alcotest.(check bool) (where ^ "the root moves") true
      (r.Ccmorph.new_root <> !root);
    Alcotest.(check bool) (where ^ "fresh address space reserved") true
      (Machine.reserved_bytes m > reserved);
    let t' = Bst.of_root m ~elem_bytes:20 ~n:255 r.Ccmorph.new_root in
    Alcotest.(check (list int)) (where ^ "keys intact") before
      (Bst.to_sorted_list t');
    root := r.Ccmorph.new_root
  done

let prop_morph_preserves_bst =
  QCheck.Test.make ~count:40 ~name:"morph preserves random BSTs"
    QCheck.(pair (int_range 1 300) (int_range 0 1000))
    (fun (n, seed) ->
      let m = mk () in
      let keys = Array.init n (fun i -> (i * 7) - 500) in
      let t = Bst.build m (Bst.Random (Rng.create seed)) ~keys in
      let before = Bst.to_sorted_list t in
      let r = Ccmorph.morph m (Bst.desc ~elem_bytes:20) ~root:t.Bst.root in
      let t' = Bst.of_root m ~elem_bytes:20 ~n r.Ccmorph.new_root in
      before = Bst.to_sorted_list t' && r.Ccmorph.nodes = n)

let prop_morph_parent_pointers =
  QCheck.Test.make ~count:40 ~name:"morph rewrites doubly-linked lists"
    QCheck.(int_range 1 120)
    (fun n ->
      let m = mk () in
      let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
      let l = Structures.Linked_list.create m ~alloc in
      for i = 0 to n - 1 do
        ignore (Structures.Linked_list.push_front l i)
      done;
      let r =
        Ccmorph.morph m
          (Structures.Linked_list.desc ~elem_bytes:12)
          ~root:l.Structures.Linked_list.head
      in
      Structures.Linked_list.set_head l r.Ccmorph.new_root ~length:n;
      Structures.Linked_list.check l;
      Structures.Linked_list.to_payload_list l
      = List.init n (fun i -> n - 1 - i))

let tests =
  [
    ( "ccmorph",
      [
        Alcotest.test_case "semantics preserved" `Quick test_semantics_preserved;
        Alcotest.test_case "old copy untouched" `Quick test_old_copy_untouched;
        Alcotest.test_case "subtree clustering placement" `Quick
          test_clustering_parent_child_same_block;
        Alcotest.test_case "coloring pins top of tree" `Quick
          test_coloring_hot_near_root;
        Alcotest.test_case "depth-first scheme" `Quick test_depth_first_scheme;
        Alcotest.test_case "reorganization overhead charged" `Quick
          test_morph_charges_cycles;
        Alcotest.test_case "list morph" `Quick test_morph_list;
        Alcotest.test_case "forest morph" `Quick test_morph_forest;
        Alcotest.test_case "null roots and errors" `Quick test_null_and_errors;
        Alcotest.test_case "offset hot region" `Quick test_color_first_set;
        Alcotest.test_case "cold-block order" `Quick test_cold_order;
        Alcotest.test_case "subtree of a larger structure" `Quick
          test_morph_subtree_of_larger_structure;
        Alcotest.test_case "parent slot respects kid_filter" `Quick
          test_parent_slot_respects_kid_filter;
        Alcotest.test_case "pointer slots are disjoint words" `Quick
          test_slots_disjoint_words;
        Alcotest.test_case "child outside the reservation" `Quick
          test_child_outside_reservation;
        Alcotest.test_case "parent pointer not the discoverer" `Quick
          test_parent_not_discoverer;
        Alcotest.test_case "re-morphs move and keep keys" `Quick
          test_remorph_moves_and_preserves;
        QCheck_alcotest.to_alcotest prop_morph_preserves_bst;
        QCheck_alcotest.to_alcotest prop_morph_parent_pointers;
      ] );
  ]
