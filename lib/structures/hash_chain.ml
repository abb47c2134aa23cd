module A = Memsim.Addr
module Machine = Memsim.Machine

type t = {
  m : Machine.t;
  alloc : Alloc.Allocator.t;
  buckets : int;
  table : A.t;
  mutable entries : int;
}

let entry_bytes = 12
let off_next = 0
let off_key = 4
let off_value = 8

let create m ~alloc ~buckets =
  if not (A.is_pow2 buckets) then
    invalid_arg "Hash_chain.create: buckets must be a power of two";
  let bump = Alloc.Bump.create ~name:"hash-table" m in
  let table = Alloc.Bump.alloc bump ~align:4 (buckets * 4) in
  Memsim.Memory.fill_zero (Machine.memory m) table ~bytes:(buckets * 4);
  { m; alloc; buckets; table; entries = 0 }

let hash t key =
  (* Knuth multiplicative hashing on the low 32 bits. *)
  let h = key * 0x9E3779B1 land 0xffffffff in
  h lsr (32 - A.log2 t.buckets) land (t.buckets - 1)

let bucket_cell t key = t.table + (4 * hash t key)

let rec insert_walk t cell key value prev cur =
  let m = t.m in
  if A.is_null cur then begin
    let hint = if A.is_null prev then cell else prev in
    let node =
      t.alloc.Alloc.Allocator.alloc ~hint ~site:"hash_chain.entry" entry_bytes
    in
    Machine.store_ptr m (node + off_next) A.null;
    Machine.store32 m (node + off_key) key;
    Machine.store32 m (node + off_value) value;
    if A.is_null prev then Machine.store_ptr m cell node
    else Machine.store_ptr m (prev + off_next) node;
    t.entries <- t.entries + 1
  end
  else if Machine.load32s m (cur + off_key) = key then
    Machine.store32 m (cur + off_value) value
  else insert_walk t cell key value cur (Machine.load_ptr m (cur + off_next))

let insert t ~key ~value =
  let cell = bucket_cell t key in
  insert_walk t cell key value A.null (Machine.load_ptr t.m cell)

let rec find_walk m key default cur =
  if A.is_null cur then default
  else if Machine.load32s m (cur + off_key) = key then
    Machine.load32s m (cur + off_value)
  else find_walk m key default (Machine.load_ptr m (cur + off_next))

let find_or t key ~default =
  find_walk t.m key default (Machine.load_ptr t.m (bucket_cell t key))

let rec remove_walk t cell key prev cur =
  let m = t.m in
  if A.is_null cur then false
  else if Machine.load32s m (cur + off_key) = key then begin
    let next = Machine.load_ptr m (cur + off_next) in
    if A.is_null prev then Machine.store_ptr m cell next
    else Machine.store_ptr m (prev + off_next) next;
    t.alloc.Alloc.Allocator.free cur;
    t.entries <- t.entries - 1;
    true
  end
  else remove_walk t cell key cur (Machine.load_ptr m (cur + off_next))

let remove t key =
  let cell = bucket_cell t key in
  remove_walk t cell key A.null (Machine.load_ptr t.m cell)

let bucket_heads t =
  Array.init t.buckets (fun i -> Machine.uload32 t.m (t.table + (4 * i)))

let set_bucket_heads t heads =
  if Array.length heads <> t.buckets then
    invalid_arg "Hash_chain.set_bucket_heads: wrong arity";
  Array.iteri (fun i h -> Machine.ustore32 t.m (t.table + (4 * i)) h) heads

let find_oracle t key =
  let m = t.m in
  let rec walk cur =
    if A.is_null cur then None
    else if Machine.uload32s m (cur + off_key) = key then
      Some (Machine.uload32s m (cur + off_value))
    else walk (Machine.uload32 m (cur + off_next))
  in
  walk (Machine.uload32 m (bucket_cell t key))
