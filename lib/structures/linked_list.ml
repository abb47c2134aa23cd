module A = Memsim.Addr
module Machine = Memsim.Machine

type t = {
  m : Machine.t;
  alloc : Alloc.Allocator.t;
  elem_bytes : int;
  mutable head : A.t;
  mutable length : int;
}

let off_forward = 0
let off_back = 4
let off_data = 8

let desc ~elem_bytes =
  {
    Ccsl.Ccmorph.elem_bytes;
    kid_offsets = [| off_forward |];
    parent_offset = Some off_back;
    kid_filter = None;
  }

let create ?(elem_bytes = 12) m ~alloc =
  if elem_bytes < 12 then invalid_arg "Linked_list.create: elem_bytes < 12";
  { m; alloc; elem_bytes; head = A.null; length = 0 }

let site = "linked_list.cell"

let new_node t ~hint payload =
  let node =
    if A.is_null hint then t.alloc.Alloc.Allocator.alloc ~site t.elem_bytes
    else t.alloc.Alloc.Allocator.alloc ~hint ~site t.elem_bytes
  in
  Machine.store32 t.m (node + off_data) payload;
  node

(* Top-level walks, here and in the other structures: a local [let rec]
   that captures the machine is a closure allocated on every call. *)
let rec tail m prev cur =
  if A.is_null cur then prev else tail m cur (Machine.load_ptr m (cur + off_forward))

let append t payload =
  (* The paper's addList: walk to the tail, then co-locate with it. *)
  let m = t.m in
  let last = tail m A.null t.head in
  let node = new_node t ~hint:last payload in
  Machine.store_ptr m (node + off_forward) A.null;
  Machine.store_ptr m (node + off_back) last;
  if A.is_null last then t.head <- node
  else Machine.store_ptr m (last + off_forward) node;
  t.length <- t.length + 1;
  node

let push_front t payload =
  let m = t.m in
  let node = new_node t ~hint:t.head payload in
  Machine.store_ptr m (node + off_forward) t.head;
  Machine.store_ptr m (node + off_back) A.null;
  if not (A.is_null t.head) then Machine.store_ptr m (t.head + off_back) node;
  t.head <- node;
  t.length <- t.length + 1;
  node

let remove t node =
  let m = t.m in
  let fwd = Machine.load_ptr m (node + off_forward) in
  let back = Machine.load_ptr m (node + off_back) in
  if A.is_null back then t.head <- fwd
  else Machine.store_ptr m (back + off_forward) fwd;
  if not (A.is_null fwd) then Machine.store_ptr m (fwd + off_back) back;
  t.length <- t.length - 1

let rec iter_from m f cur =
  if not (A.is_null cur) then begin
    f cur (Machine.load32s m (cur + off_data));
    iter_from m f (Machine.load_ptr m (cur + off_forward))
  end

let iter t f = iter_from t.m f t.head

let rec nth_from m cur j =
  if j = 0 then cur else nth_from m (Machine.load_ptr m (cur + off_forward)) (j - 1)

let nth t i =
  if i < 0 || i >= t.length then invalid_arg "Linked_list.nth: out of range";
  nth_from t.m t.head i

let to_payload_list t =
  let m = t.m in
  let rec go cur acc =
    if A.is_null cur then List.rev acc
    else
      go (Machine.uload32 m (cur + off_forward))
        (Machine.uload32s m (cur + off_data) :: acc)
  in
  go t.head []

let set_head t head ~length =
  t.head <- head;
  t.length <- length

let check t =
  let m = t.m in
  let rec go prev cur count =
    if A.is_null cur then count
    else begin
      let back = Machine.uload32 m (cur + off_back) in
      if back <> prev then failwith "Linked_list.check: back pointer broken";
      go cur (Machine.uload32 m (cur + off_forward)) (count + 1)
    end
  in
  let n = go A.null t.head 0 in
  if n <> t.length then failwith "Linked_list.check: length mismatch"
