module A = Memsim.Addr
module Machine = Memsim.Machine

type region = White | Black | Grey

type t = {
  m : Machine.t;
  mutable root : A.t;
  size : int;
  mutable nodes : int;
}

let elem_bytes = 28
let off_color = 0
let off_childtype = 4
let off_parent = 8

let off_kid q =
  if q < 0 || q > 3 then invalid_arg "Quadtree.off_kid";
  12 + (4 * q)

let color_code = function White -> 0 | Black -> 1 | Grey -> 2

let desc =
  {
    Ccsl.Ccmorph.elem_bytes;
    kid_offsets = [| 12; 16; 20; 24 |];
    parent_offset = Some off_parent;
    kid_filter = None;
  }

let alloc_node (alloc : Alloc.Allocator.t) ~hint_parent parent =
  if hint_parent && not (A.is_null parent) then
    alloc.Alloc.Allocator.alloc ~hint:parent ~site:"quadtree.node" elem_bytes
  else alloc.Alloc.Allocator.alloc ~site:"quadtree.node" elem_bytes

(* Preorder construction, the Olden allocation order.  This and
   [color_from] are top-level: a local [let rec] would be a closure per
   call. *)
let rec make t alloc ~hint_parent ~oracle ~x ~y ~size ~parent ~childtype =
  let m = t.m in
  let region = oracle ~x ~y ~size in
  if size = 1 && region = Grey then
    invalid_arg "Quadtree.build: oracle returned Grey for a unit square";
  let node = alloc_node alloc ~hint_parent parent in
  t.nodes <- t.nodes + 1;
  Machine.store32 m (node + off_color) (color_code region);
  Machine.store32 m (node + off_childtype) childtype;
  Machine.store_ptr m (node + off_parent) parent;
  (match region with
  | White | Black ->
      for q = 0 to 3 do
        Machine.store_ptr m (node + off_kid q) A.null
      done
  | Grey ->
      let half = size / 2 in
      for q = 0 to 3 do
        (* quadrants: 0 nw (x, y), 1 ne (x+half, y),
           2 sw (x, y+half), 3 se (x+half, y+half) *)
        let dx = if q land 1 = 1 then half else 0 in
        let dy = if q land 2 = 2 then half else 0 in
        Machine.store_ptr m (node + off_kid q)
          (make t alloc ~hint_parent ~oracle ~x:(x + dx) ~y:(y + dy)
             ~size:half ~parent:node ~childtype:q)
      done);
  node

let build ?(hint_parent = false) m ~alloc ~size ~oracle =
  if not (A.is_pow2 size) then
    invalid_arg "Quadtree.build: size must be a power of two";
  let t = { m; root = A.null; size; nodes = 0 } in
  t.root <-
    make t alloc ~hint_parent ~oracle ~x:0 ~y:0 ~size ~parent:A.null
      ~childtype:4;
  t

let rec color_from m node x y size =
  let c = Machine.load32 m (node + off_color) in
  if c <> 2 then c
  else
    let half = size / 2 in
    let q = (if x >= half then 1 else 0) lor (if y >= half then 2 else 0) in
    color_from m
      (Machine.load_ptr m (node + off_kid q))
      (x land (half - 1))
      (y land (half - 1))
      half

let color_at t ~x ~y =
  if x < 0 || y < 0 || x >= t.size || y >= t.size then
    invalid_arg "Quadtree.color_at: out of bounds";
  color_from t.m t.root x y t.size

let count_colors t =
  let m = t.m in
  let w = ref 0 and b = ref 0 and g = ref 0 in
  let rec go node =
    if not (A.is_null node) then begin
      (match Machine.uload32 m (node + off_color) with
      | 0 -> incr w
      | 1 -> incr b
      | _ -> incr g);
      for q = 0 to 3 do
        go (Machine.uload32 m (node + off_kid q))
      done
    end
  in
  go t.root;
  (!w, !b, !g)

let set_root t root = t.root <- root

let check_parents t =
  let m = t.m in
  let rec go node =
    for q = 0 to 3 do
      let kid = Machine.uload32 m (node + off_kid q) in
      if not (A.is_null kid) then begin
        if Machine.uload32 m (kid + off_parent) <> node then
          failwith "Quadtree.check_parents: bad parent pointer";
        if Machine.uload32 m (kid + off_childtype) <> q then
          failwith "Quadtree.check_parents: bad childtype";
        go kid
      end
    done
  in
  if not (A.is_null t.root) then begin
    if Machine.uload32 m (t.root + off_childtype) <> 4 then
      failwith "Quadtree.check_parents: root childtype";
    go t.root
  end
