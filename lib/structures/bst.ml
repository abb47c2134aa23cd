module A = Memsim.Addr
module Machine = Memsim.Machine

type layout =
  | Random of Workload.Rng.t
  | Depth_first
  | Van_emde_boas

type t = {
  m : Machine.t;
  mutable root : A.t;
  n : int;
  elem_bytes : int;
}

let default_elem_bytes = 20

let off_key = 0
let off_left = 4
let off_right = 8

let desc ~elem_bytes =
  Ccsl.Ccmorph.plain_desc ~elem_bytes ~kid_offsets:[| off_left; off_right |]

(* Tree shape as index arrays; indices are assigned in preorder. *)
type shape = {
  key_of : int array;
  left_of : int array;  (* -1 = none *)
  right_of : int array;
  root_idx : int;
}

let build_shape keys =
  let n = Array.length keys in
  let key_of = Array.make n 0 in
  let left_of = Array.make n (-1) in
  let right_of = Array.make n (-1) in
  let next = ref 0 in
  let rec go lo hi =
    (* builds the balanced subtree over keys[lo..hi], returns its index *)
    if lo > hi then -1
    else begin
      let mid = (lo + hi) / 2 in
      let idx = !next in
      incr next;
      key_of.(idx) <- keys.(mid);
      left_of.(idx) <- go lo (mid - 1);
      right_of.(idx) <- go (mid + 1) hi;
      idx
    end
  in
  let root_idx = go 0 (n - 1) in
  { key_of; left_of; right_of; root_idx }

let build ?(elem_bytes = default_elem_bytes) ?alloc m layout ~keys =
  if elem_bytes < 12 then invalid_arg "Bst.build: elem_bytes < 12";
  let n = Array.length keys in
  if n = 0 then invalid_arg "Bst.build: empty key set";
  for i = 1 to n - 1 do
    if keys.(i - 1) >= keys.(i) then
      invalid_arg "Bst.build: keys must be sorted and unique"
  done;
  let shape = build_shape keys in
  let order =
    match layout with
    | Depth_first -> Array.init n (fun i -> i)  (* indices are preorder *)
    | Van_emde_boas ->
        let kids v =
          List.filter (fun k -> k >= 0)
            [ shape.left_of.(v); shape.right_of.(v) ]
        in
        let t, ids = Layout.Tree.of_kids ~n ~kids ~roots:[ shape.root_idx ] () in
        Array.map (Array.get ids) (Layout.Veb.order t)
    | Random rng -> Workload.Rng.permutation rng n
  in
  let alloc =
    match alloc with
    | Some a ->
        fun () -> a.Alloc.Allocator.alloc ?hint:None ~site:"bst.node" elem_bytes
    | None ->
        let bump = Alloc.Bump.create ~name:"bst" m in
        fun () -> Alloc.Bump.alloc bump elem_bytes
  in
  let addr_of = Array.make n A.null in
  Array.iter (fun idx -> addr_of.(idx) <- alloc ()) order;
  for idx = 0 to n - 1 do
    let a = addr_of.(idx) in
    Machine.ustore32 m (a + off_key) shape.key_of.(idx);
    Machine.ustore32 m (a + off_left)
      (if shape.left_of.(idx) >= 0 then addr_of.(shape.left_of.(idx)) else 0);
    Machine.ustore32 m (a + off_right)
      (if shape.right_of.(idx) >= 0 then addr_of.(shape.right_of.(idx)) else 0)
  done;
  { m; root = addr_of.(shape.root_idx); n; elem_bytes }

let of_root m ~elem_bytes ~n root = { m; root; n; elem_bytes }

let search t key =
  let m = t.m in
  let rec go node =
    if A.is_null node then false
    else
      let k = Machine.load32s m (node + off_key) in
      if key = k then true
      else if key < k then go (Machine.load_ptr m (node + off_left))
      else go (Machine.load_ptr m (node + off_right))
  in
  go t.root

let depth_of t key =
  let m = t.m in
  let rec go node d =
    if A.is_null node then d
    else
      let k = Machine.load32s m (node + off_key) in
      if key = k then d + 1
      else if key < k then go (Machine.load_ptr m (node + off_left)) (d + 1)
      else go (Machine.load_ptr m (node + off_right)) (d + 1)
  in
  go t.root 0

let insert t ?alloc key =
  let m = t.m in
  let alloc =
    match alloc with
    | Some a ->
        fun () ->
          a.Alloc.Allocator.alloc ?hint:None ~site:"bst.node" t.elem_bytes
    | None -> fun () -> Machine.reserve m ~bytes:t.elem_bytes ~align:4
  in
  let fresh () =
    let node = alloc () in
    Machine.store32 m (node + off_key) key;
    Machine.store_ptr m (node + off_left) A.null;
    Machine.store_ptr m (node + off_right) A.null;
    node
  in
  if A.is_null t.root then begin
    t.root <- fresh ();
    true
  end
  else begin
    let rec go node =
      let k = Machine.load32s m (node + off_key) in
      if key = k then false
      else begin
        let off = if key < k then off_left else off_right in
        let kid = Machine.load_ptr m (node + off) in
        if A.is_null kid then begin
          Machine.store_ptr m (node + off) (fresh ());
          true
        end
        else go kid
      end
    in
    go t.root
  end

let mem_oracle t key =
  let m = t.m in
  let rec go node =
    if A.is_null node then false
    else
      let k = Machine.uload32s m (node + off_key) in
      if key = k then true
      else if key < k then go (Machine.uload32 m (node + off_left))
      else go (Machine.uload32 m (node + off_right))
  in
  go t.root

let to_sorted_list t =
  let m = t.m in
  let rec go node acc =
    if A.is_null node then acc
    else
      let k = Machine.uload32s m (node + off_key) in
      let acc = go (Machine.uload32 m (node + off_right)) acc in
      go (Machine.uload32 m (node + off_left)) (k :: acc)
  in
  go t.root []
