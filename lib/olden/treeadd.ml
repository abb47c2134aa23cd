module A = Memsim.Addr
module Machine = Memsim.Machine

type params = { levels : int; passes : int }

let default_params = { levels = 16; passes = 1 }
let paper_params = { levels = 18; passes = 1 }
let node_bytes = 16
let off_value = 0
let off_left = 4
let off_right = 8
let nodes_of p = (1 lsl p.levels) - 1
let expected_sum p = nodes_of p

let desc = Ccsl.Ccmorph.plain_desc ~elem_bytes:node_bytes ~kid_offsets:[| off_left; off_right |]

(* Preorder construction, exactly Olden's TreeAlloc: parent allocated
   before children, children hinted to the parent. *)
let rec build (ctx : Common.ctx) level parent_hint =
  if level = 0 then A.null
  else begin
    let m = ctx.machine in
    let node =
      if A.is_null parent_hint then
        ctx.alloc.Alloc.Allocator.alloc ~site:"treeadd.node" node_bytes
      else
        ctx.alloc.Alloc.Allocator.alloc ~hint:parent_hint ~site:"treeadd.node"
          node_bytes
    in
    Machine.store32 m (node + off_value) 1;
    let l = build ctx (level - 1) node in
    let r = build ctx (level - 1) node in
    Machine.store_ptr m (node + off_left) l;
    Machine.store_ptr m (node + off_right) r;
    node
  end

let rec sum (ctx : Common.ctx) node =
  if A.is_null node then 0
  else begin
    let m = ctx.machine in
    let l = Machine.load_ptr m (node + off_left) in
    let r = Machine.load_ptr m (node + off_right) in
    if ctx.sw_prefetch then begin
      (* greedy prefetch: fetch both children before descending *)
      Machine.prefetch m l;
      Machine.prefetch m r
    end;
    let v = Machine.load32s m (node + off_value) in
    Machine.busy m 1;
    (* explicit lets: OCaml evaluates [a + b] right-to-left, which would
       silently turn this preorder walk into a right-first one *)
    let sl = sum ctx l in
    let sr = sum ctx r in
    v + sl + sr
  end

let run ?(params = default_params) ?(measure_whole = false) ?ctx placement =
  let ctx =
    match ctx with Some c -> c | None -> Common.make_ctx placement
  in
  let root = build ctx params.levels A.null in
  let root =
    match ctx.morph_params with
    | None -> root
    | Some p ->
        (* treeadd's only traversal is a full depth-first walk; per the
           paper's Section 2.1 ("for specific access patterns, such as
           depth-first search, other clustering schemes may be better")
           the programmer parameterizes ccmorph with depth-first
           clustering here.  An explicitly requested engine (a layout
           shootout) is honored as given. *)
        let p =
          match p.Ccsl.Ccmorph.cluster with
          | Ccsl.Ccmorph.Subtree ->
              { p with Ccsl.Ccmorph.cluster = Ccsl.Ccmorph.Depth_first }
          | _ -> p
        in
        (Ccsl.Ccmorph.morph ~params:p ctx.machine desc ~root).Ccsl.Ccmorph.new_root
  in
  (* Construction and one-time reorganization happen at start-up; the
     measured region is the compute kernel, as in an RSIM run with the
     initialization fast-forwarded.  Caches stay warm. *)
  if not measure_whole then Machine.reset_measurement ctx.machine;
  let total = ref 0 in
  for _ = 1 to params.passes do
    total := sum ctx root
  done;
  Common.finish ctx ~checksum:!total
