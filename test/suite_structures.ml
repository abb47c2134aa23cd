(* Tests for the pointer structures: BST, B-tree, linked list, chained
   hash table, quadtree, octree. *)

module Machine = Memsim.Machine
module Config = Memsim.Config
module A = Memsim.Addr
module Rng = Workload.Rng
module Bst = Structures.Bst
module Btree = Structures.Btree
module Ll = Structures.Linked_list
module Hc = Structures.Hash_chain
module Qt = Structures.Quadtree
module Oc = Structures.Octree

let mk () = Machine.create (Config.tiny ())

(* --- BST --- *)

let test_bst_search_all_layouts () =
  let keys = Array.init 500 (fun i -> i * 2) in
  List.iter
    (fun layout ->
      let m = mk () in
      let t = Bst.build m layout ~keys in
      Alcotest.(check bool) "finds present" true (Bst.search t 500);
      Alcotest.(check bool) "rejects absent" false (Bst.search t 501);
      Alcotest.(check (list int)) "inorder sorted" (Array.to_list keys)
        (Bst.to_sorted_list t))
    [
      Bst.Random (Rng.create 42); Bst.Depth_first; Bst.Van_emde_boas;
    ]

let test_bst_dfs_layout_adjacency () =
  let m = mk () in
  let keys = Array.init 31 (fun i -> i) in
  let t = Bst.build m Bst.Depth_first ~keys in
  (* preorder allocation: root's left child is the very next 20-byte slot *)
  let left = Machine.uload32 m (t.Bst.root + 4) in
  Alcotest.(check int) "left child adjacent" (t.Bst.root + 20) left

let test_bst_depth () =
  let m = mk () in
  let keys = Array.init 1023 (fun i -> i) in
  let t = Bst.build m Bst.Depth_first ~keys in
  Alcotest.(check int) "balanced depth of hit" 10 (Bst.depth_of t 0 |> min 10);
  Alcotest.(check bool) "miss path <= 10" true (Bst.depth_of t 5000 <= 10)

let test_bst_validation () =
  let m = mk () in
  Alcotest.check_raises "unsorted keys"
    (Invalid_argument "Bst.build: keys must be sorted and unique") (fun () ->
      ignore (Bst.build m Bst.Depth_first ~keys:[| 3; 1 |]))

let test_bst_veb_layout () =
  (* vEB layout: the root's grandchildren-level subtrees are contiguous;
     concretely the order must be a permutation and height-halving puts
     the root and its children in the first addresses *)
  let m = mk () in
  let keys = Array.init 1023 (fun i -> i) in
  let t = Bst.build m Bst.Van_emde_boas ~keys in
  Alcotest.(check (list int)) "inorder sorted" (Array.to_list keys)
    (Bst.to_sorted_list t);
  (* height 10 -> top of height 5: the root block's first addresses hold
     the top levels; left child within the first 31 slots *)
  let left = Machine.uload32 m (t.Bst.root + 4) in
  Alcotest.(check bool) "left child near root" true
    (left - t.Bst.root < 31 * 20);
  (* and searches behave *)
  for k = 0 to 1022 do
    Alcotest.(check bool) "hit" true (Bst.mem_oracle t k)
  done;
  (* nodes are allocated in [Layout.Veb.order] of the tree's shape; 64
     is the first size where a plain height-halving split differs *)
  List.iter
    (fun n ->
      let m = mk () in
      let t = Bst.build m Bst.Van_emde_boas ~keys:(Array.init n Fun.id) in
      (* number the nodes in preorder from their addresses *)
      let addr = Array.make n 0 and kids = Array.make n [] in
      let next = ref 0 in
      let rec walk a =
        if a = 0 then None
        else begin
          let id = !next in
          incr next;
          addr.(id) <- a;
          let l = walk (Machine.uload32 m (a + 4)) in
          let r = walk (Machine.uload32 m (a + 8)) in
          kids.(id) <- List.filter_map Fun.id [ l; r ];
          Some id
        end
      in
      ignore (walk t.Bst.root);
      let order =
        let t, ids = Layout.Tree.of_kids ~n ~kids:(Array.get kids) ~roots:[ 0 ] in
        Array.map (Array.get ids) (Layout.Veb.order t)
      in
      for i = 1 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "n=%d: slot %d follows slot %d" n i (i - 1))
          true
          (addr.(order.(i - 1)) < addr.(order.(i)))
      done)
    [ 64; 1023 ]

let test_bst_insert () =
  let m = mk () in
  let keys = Array.init 100 (fun i -> i * 10) in
  let t = Bst.build m Bst.Depth_first ~keys in
  Alcotest.(check bool) "inserted" true (Bst.insert t 55);
  Alcotest.(check bool) "duplicate rejected" false (Bst.insert t 55);
  Alcotest.(check bool) "searchable" true (Bst.search t 55);
  Alcotest.(check int) "inorder grew" 101 (List.length (Bst.to_sorted_list t))

let prop_bst_membership =
  QCheck.Test.make ~count:40 ~name:"bst search matches set membership"
    QCheck.(pair (int_range 1 400) (int_range 0 99))
    (fun (n, seed) ->
      let m = mk () in
      let keys = Array.init n (fun i -> i * 3) in
      let t = Bst.build m (Bst.Random (Rng.create seed)) ~keys in
      let ok = ref true in
      for k = -2 to (n * 3) + 2 do
        let expected = k >= 0 && k mod 3 = 0 && k / 3 < n in
        if Bst.search t k <> expected then ok := false
      done;
      !ok)

(* --- B-tree --- *)

let test_btree_basics () =
  let m = mk () in
  let keys = Array.init 1000 (fun i -> i * 2) in
  let t = Btree.build m ~keys in
  Btree.check_invariants t;
  Alcotest.(check (list int)) "inorder" (Array.to_list keys)
    (Btree.to_sorted_list t);
  Alcotest.(check bool) "hit" true (Btree.search t 500);
  Alcotest.(check bool) "miss" false (Btree.search t 501);
  (* 64-bit ABI geometry: 4 + 4k + 8(k+1) <= 64 -> 4 keys, 5 children *)
  Alcotest.(check int) "max keys for 64B block" 4
    (Btree.max_keys_for ~block_bytes:64)

let test_btree_nodes_block_aligned () =
  let m = mk () in
  let keys = Array.init 500 (fun i -> i) in
  let t = Btree.build m ~colored:false ~keys in
  let bb = Machine.l2_block_bytes m in
  Alcotest.(check bool) "root block aligned" true (A.is_aligned t.Btree.root bb)

let test_btree_colored_root_hot () =
  let m = mk () in
  let keys = Array.init 5000 (fun i -> i) in
  let t = Btree.build m ~colored:true ~keys in
  Btree.check_invariants t;
  let l2 = (Machine.config m).Memsim.Config.l2 in
  let coloring = Ccsl.Coloring.v ~l2 ~page_bytes:(Machine.page_bytes m) () in
  Alcotest.(check bool) "root in hot sets" true
    (Memsim.Cache_config.set_of_addr l2 t.Btree.root
    < coloring.Ccsl.Coloring.hot_sets)

let test_btree_insert () =
  let m = mk () in
  let t = ref (Btree.create_empty m) in
  let reference = ref [] in
  let rng = Rng.create 77 in
  for _ = 1 to 500 do
    let k = Rng.int rng 400 in
    t := Btree.insert !t k;
    if not (List.mem k !reference) then reference := k :: !reference
  done;
  Btree.check_invariants !t;
  Alcotest.(check (list int)) "inorder = sorted distinct inserts"
    (List.sort_uniq compare !reference)
    (Btree.to_sorted_list !t);
  List.iter
    (fun k -> Alcotest.(check bool) "find inserted" true (Btree.search !t k))
    !reference;
  Alcotest.(check bool) "absent stays absent" false (Btree.search !t 4001)

let test_btree_insert_into_bulk () =
  let m = mk () in
  let keys = Array.init 300 (fun i -> i * 4) in
  let t = ref (Btree.build m ~keys) in
  for k = 0 to 500 do
    t := Btree.insert !t ((k * 3) + 1)
  done;
  Btree.check_invariants !t;
  for k = 0 to 500 do
    Alcotest.(check bool) "new key found" true (Btree.search !t ((k * 3) + 1))
  done;
  Array.iter
    (fun k -> Alcotest.(check bool) "old key kept" true (Btree.search !t k))
    keys

let prop_btree_insert_model =
  QCheck.Test.make ~count:30 ~name:"btree insert matches a set model"
    QCheck.(list_of_size (Gen.int_range 1 300) (int_range (-100) 100))
    (fun ks ->
      let m = mk () in
      let t = List.fold_left Btree.insert (Btree.create_empty m) ks in
      Btree.check_invariants t;
      Btree.to_sorted_list t = List.sort_uniq compare ks)

let prop_btree_membership =
  QCheck.Test.make ~count:30 ~name:"btree matches sorted-array membership"
    QCheck.(pair (int_range 1 2000) (int_range 2 10))
    (fun (n, ff) ->
      let m = mk () in
      let keys = Array.init n (fun i -> i * 2) in
      let t = Btree.build m ~fill_factor:(float_of_int ff /. 10.) ~keys in
      Btree.check_invariants t;
      let ok = ref true in
      let probes = [ 0; 1; 2; n; (2 * n) - 2; (2 * n) - 1; 2 * n ] in
      List.iter
        (fun k ->
          let expected = k >= 0 && k mod 2 = 0 && k / 2 < n in
          if k >= 0 && Btree.search t k <> expected then ok := false)
        probes;
      !ok && Btree.to_sorted_list t = Array.to_list keys)

(* --- Linked list --- *)

let test_list_ops () =
  let m = mk () in
  let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
  let l = Ll.create m ~alloc in
  let a = Ll.append l 1 in
  let _b = Ll.append l 2 in
  let c = Ll.append l 3 in
  Ll.check l;
  Alcotest.(check (list int)) "appended" [ 1; 2; 3 ] (Ll.to_payload_list l);
  Ll.remove l a;
  Ll.check l;
  Alcotest.(check (list int)) "removed head" [ 2; 3 ] (Ll.to_payload_list l);
  Ll.remove l c;
  Ll.check l;
  Alcotest.(check (list int)) "removed tail" [ 2 ] (Ll.to_payload_list l);
  let _ = Ll.push_front l 9 in
  Ll.check l;
  Alcotest.(check (list int)) "pushed" [ 9; 2 ] (Ll.to_payload_list l);
  Alcotest.(check int) "nth" 2
    (Machine.uload32s m (Ll.nth l 1 + Ll.off_data))

let test_list_ccmalloc_colocation () =
  let m = mk () in
  let cc = Ccsl.Ccmalloc.create ~strategy:Ccsl.Ccmalloc.Closest m in
  let l = Ll.create m ~alloc:(Ccsl.Ccmalloc.allocator cc) in
  ignore (Ll.append l 1);
  ignore (Ll.append l 2);
  let bb = Machine.l2_block_bytes m in
  let first = l.Ll.head in
  let second = Machine.uload32 m (first + Ll.off_forward) in
  Alcotest.(check int) "tail-hinted append co-locates"
    (A.block_index first ~block_bytes:bb)
    (A.block_index second ~block_bytes:bb)

let prop_list_model =
  QCheck.Test.make ~count:50 ~name:"list matches a reference deque"
    QCheck.(list_of_size (Gen.int_range 1 80) (int_range 0 2))
    (fun ops ->
      let m = mk () in
      let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
      let l = Ll.create m ~alloc in
      let reference = ref [] in
      let counter = ref 0 in
      List.iter
        (fun op ->
          incr counter;
          match op with
          | 0 ->
              ignore (Ll.append l !counter);
              reference := !reference @ [ !counter ]
          | 1 ->
              ignore (Ll.push_front l !counter);
              reference := !counter :: !reference
          | _ ->
              if l.Ll.length > 0 then begin
                Ll.remove l (Ll.nth l 0);
                reference := List.tl !reference
              end)
        ops;
      Ll.check l;
      Ll.to_payload_list l = !reference)

(* --- Chained hash table --- *)

let test_hash_basics () =
  let m = mk () in
  let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
  let h = Hc.create m ~alloc ~buckets:16 in
  Hc.insert h ~key:1 ~value:10;
  Hc.insert h ~key:17 ~value:20;
  Hc.insert h ~key:1 ~value:11;
  let find k = Hc.find_or h k ~default:(-1) in
  Alcotest.(check int) "updated" 11 (find 1);
  Alcotest.(check int) "second key" 20 (find 17);
  Alcotest.(check int) "absent" (-1) (find 99);
  Alcotest.(check bool) "remove present" true (Hc.remove h 1);
  Alcotest.(check bool) "remove absent" false (Hc.remove h 1);
  Alcotest.(check int) "gone" (-1) (find 1)

let prop_hash_model =
  QCheck.Test.make ~count:40 ~name:"hash table matches Hashtbl"
    QCheck.(list_of_size (Gen.int_range 1 200) (pair (int_range 0 50) (int_range 0 1000)))
    (fun kvs ->
      let m = mk () in
      let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
      let h = Hc.create m ~alloc ~buckets:8 in
      let reference = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          Hc.insert h ~key:k ~value:v;
          Hashtbl.replace reference k v)
        kvs;
      Hashtbl.fold
        (fun k v acc ->
          acc && Hc.find_oracle h k = Some v && Hc.find_or h k ~default:(-1) = v)
        reference true
      && List.for_all
           (fun k -> Hashtbl.mem reference k || Hc.find_or h k ~default:(-1) = -1)
           (List.init 60 Fun.id))

let test_hash_morph_forest () =
  let m = mk () in
  let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
  let h = Hc.create m ~alloc ~buckets:8 in
  for k = 0 to 99 do
    Hc.insert h ~key:k ~value:(k * k)
  done;
  let roots = Hc.bucket_heads h in
  let desc =
    Ccsl.Ccmorph.plain_desc ~elem_bytes:Hc.entry_bytes ~kid_offsets:[| 0 |]
  in
  let r = Ccsl.Ccmorph.morph_forest m desc ~roots in
  Hc.set_bucket_heads h r.Ccsl.Ccmorph.new_roots;
  Alcotest.(check int) "all entries morphed" 100 r.Ccsl.Ccmorph.nodes;
  for k = 0 to 99 do
    Alcotest.(check (option int)) "lookup after morph" (Some (k * k))
      (Hc.find_oracle h k)
  done

(* --- Quadtree --- *)

(* a 2x2 black square in the north-west of an 8x8 image *)
let small_oracle ~x ~y ~size =
  let all_black = x + size <= 2 && y + size <= 2 in
  let all_white = x >= 2 || y >= 2 in
  if all_black then Qt.Black
  else if all_white then Qt.White
  else Qt.Grey

let test_quadtree_build_query () =
  let m = mk () in
  let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
  let t = Qt.build m ~alloc ~size:8 ~oracle:small_oracle in
  Qt.check_parents t;
  Alcotest.(check int) "black at origin" 1 (Qt.color_at t ~x:0 ~y:0);
  Alcotest.(check int) "black at 1,1" 1 (Qt.color_at t ~x:1 ~y:1);
  Alcotest.(check int) "white elsewhere" 0 (Qt.color_at t ~x:5 ~y:5);
  Alcotest.(check int) "white at 2,0" 0 (Qt.color_at t ~x:2 ~y:0);
  let w, b, g = Qt.count_colors t in
  Alcotest.(check bool) "has grey internals" true (g >= 1);
  Alcotest.(check bool) "black leaf exists" true (b >= 1);
  Alcotest.(check bool) "white leaves exist" true (w >= 1)

let test_quadtree_morph () =
  let m = mk () in
  let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
  let t = Qt.build m ~alloc ~size:8 ~oracle:small_oracle in
  let r = Ccsl.Ccmorph.morph m Qt.desc ~root:t.Qt.root in
  Qt.set_root t r.Ccsl.Ccmorph.new_root;
  Qt.check_parents t;
  Alcotest.(check int) "query after morph" 1 (Qt.color_at t ~x:1 ~y:0);
  Alcotest.(check int) "white after morph" 0 (Qt.color_at t ~x:7 ~y:7)

let prop_quadtree_matches_oracle =
  QCheck.Test.make ~count:30 ~name:"quadtree point queries match the image"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let size = 16 in
      (* random image via a threshold on hashed pixels *)
      let img = Array.init size (fun _ -> Array.init size (fun _ -> Rng.bool rng)) in
      let uniform ~x ~y ~size v =
        if size = 0 then true
        else
          let ok = ref true in
          for i = x to x + size - 1 do
            for j = y to y + size - 1 do
              if img.(i).(j) <> v then ok := false
            done
          done;
          !ok
      in
      let oracle ~x ~y ~size =
        if uniform ~x ~y ~size true then Qt.Black
        else if uniform ~x ~y ~size false then Qt.White
        else Qt.Grey
      in
      let m = mk () in
      let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
      let t = Qt.build m ~alloc ~size ~oracle in
      Qt.check_parents t;
      let ok = ref true in
      for i = 0 to size - 1 do
        for j = 0 to size - 1 do
          let expect = if img.(i).(j) then 1 else 0 in
          if Qt.color_at t ~x:i ~y:j <> expect then ok := false
        done
      done;
      !ok)

(* --- Octree --- *)

let sphere_oracle r ~x ~y ~z ~size =
  (* classify cube against a sphere of radius r at the origin corner *)
  let inside cx cy cz = (cx * cx) + (cy * cy) + (cz * cz) <= r * r in
  let corners = ref 0 in
  for dx = 0 to 1 do
    for dy = 0 to 1 do
      for dz = 0 to 1 do
        if inside (x + (dx * size)) (y + (dy * size)) (z + (dz * size)) then
          incr corners
      done
    done
  done;
  if size = 1 then if inside x y z then Oc.Full 1 else Oc.Empty
  else if !corners = 8 then Oc.Full 1
  else if !corners = 0 && not (inside x y z) then Oc.Empty
  else Oc.Mixed

let test_octree_build_locate () =
  let m = mk () in
  let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
  let t = Oc.build m ~alloc ~size:16 ~oracle:(sphere_oracle 8) in
  Alcotest.(check bool) "origin inside sphere" true (Oc.locate t ~x:0 ~y:0 ~z:0 > 0);
  Alcotest.(check int) "far corner empty" 0 (Oc.locate t ~x:15 ~y:15 ~z:15);
  let e, f = Oc.count_leaves t in
  Alcotest.(check bool) "both kinds of leaves" true (e > 0 && f > 0)

let test_octree_morph () =
  let m = mk () in
  let alloc = Alloc.Bump.allocator (Alloc.Bump.create m) in
  let t = Oc.build m ~alloc ~size:16 ~oracle:(sphere_oracle 8) in
  let before =
    Array.init 64 (fun i ->
        Oc.locate t ~x:(i mod 4 * 5) ~y:(i / 4 mod 4 * 5) ~z:(i / 16 * 5))
  in
  let r = Ccsl.Ccmorph.morph m Oc.desc ~root:t.Oc.root in
  Oc.set_root t r.Ccsl.Ccmorph.new_root;
  let after =
    Array.init 64 (fun i ->
        Oc.locate t ~x:(i mod 4 * 5) ~y:(i / 4 mod 4 * 5) ~z:(i / 16 * 5))
  in
  Alcotest.(check (array int)) "locations preserved by morph" before after;
  Alcotest.(check bool) "tagged leaves not treated as pointers" true
    (r.Ccsl.Ccmorph.nodes > 1)

let tests =
  [
    ( "bst",
      [
        Alcotest.test_case "search across layouts" `Quick
          test_bst_search_all_layouts;
        Alcotest.test_case "dfs layout adjacency" `Quick
          test_bst_dfs_layout_adjacency;
        Alcotest.test_case "balanced depth" `Quick test_bst_depth;
        Alcotest.test_case "input validation" `Quick test_bst_validation;
        Alcotest.test_case "insertion" `Quick test_bst_insert;
        Alcotest.test_case "van Emde Boas layout" `Quick test_bst_veb_layout;
        QCheck_alcotest.to_alcotest prop_bst_membership;
      ] );
    ( "btree",
      [
        Alcotest.test_case "build and search" `Quick test_btree_basics;
        Alcotest.test_case "block-aligned nodes" `Quick
          test_btree_nodes_block_aligned;
        Alcotest.test_case "colored root is hot" `Quick
          test_btree_colored_root_hot;
        Alcotest.test_case "insertion from empty" `Quick test_btree_insert;
        Alcotest.test_case "insertion into bulk-loaded tree" `Quick
          test_btree_insert_into_bulk;
        QCheck_alcotest.to_alcotest prop_btree_insert_model;
        QCheck_alcotest.to_alcotest prop_btree_membership;
      ] );
    ( "linked-list",
      [
        Alcotest.test_case "operations" `Quick test_list_ops;
        Alcotest.test_case "ccmalloc co-location" `Quick
          test_list_ccmalloc_colocation;
        QCheck_alcotest.to_alcotest prop_list_model;
      ] );
    ( "hash-chain",
      [
        Alcotest.test_case "basics" `Quick test_hash_basics;
        Alcotest.test_case "forest morph" `Quick test_hash_morph_forest;
        QCheck_alcotest.to_alcotest prop_hash_model;
      ] );
    ( "quadtree",
      [
        Alcotest.test_case "build and query" `Quick test_quadtree_build_query;
        Alcotest.test_case "morph" `Quick test_quadtree_morph;
        QCheck_alcotest.to_alcotest prop_quadtree_matches_oracle;
      ] );
    ( "octree",
      [
        Alcotest.test_case "build and locate" `Quick test_octree_build_locate;
        Alcotest.test_case "morph with tagged leaves" `Quick test_octree_morph;
      ] );
  ]
