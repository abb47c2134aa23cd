module A = Memsim.Addr
module Machine = Memsim.Machine
module Hc = Structures.Hash_chain
module Rng = Workload.Rng

type params = { vertices : int; degree : int; seed : int }

let default_params = { vertices = 512; degree = 8; seed = 101 }
let paper_params = default_params

(* The edges in generation order: vertex i gets [degree] pseudo-random
   neighbours; edges are symmetrized, and a ring guarantees
   connectivity.  A repeated pair keeps its first weight.  Pairs are
   keyed [lower * vertices + higher] in an int table and each edge goes
   straight to [f], so nothing is boxed per edge. *)
let iter_edges params f =
  let n = params.vertices in
  let rng = Rng.create params.seed in
  let seen = Alloc.Int_table.create (n * (params.degree + 1) * 4 / 3) in
  let add (i : int) j w =
    let key = if i < j then (i * n) + j else (j * n) + i in
    if i <> j && Alloc.Int_table.exchange seen key 0 ~default:(-1) < 0 then
      f i j w
  in
  for i = 0 to n - 1 do
    add i ((i + 1) mod n) (1 + Rng.int rng 100);
    for _ = 1 to params.degree do
      (* the weight is drawn before the neighbour *)
      let w = 1 + Rng.int rng 10000 in
      add i (Rng.int rng n) w
    done
  done

let run ?(params = default_params) ?(measure_whole = false) ?ctx placement =
  let ctx =
    match ctx with Some c -> c | None -> Common.make_ctx placement
  in
  let m = ctx.Common.machine in
  let n = params.vertices in
  (* Per-vertex hash tables, as in Olden's MakeGraph/AddEdges.  Four
     buckets per vertex gives the short-but-walked chains the paper
     describes. *)
  let buckets = 4 in
  let tables =
    Array.init n (fun _ -> Hc.create m ~alloc:ctx.Common.alloc ~buckets)
  in
  (* Edge-wise insertion, as Olden's AddEdges does: each undirected edge
     lands in both endpoints' tables back to back, so under the base
     allocator a given table's chain entries end up scattered across the
     whole construction — exactly the "no locality between lists"
     behaviour the paper describes. *)
  iter_edges params (fun i j w ->
      Hc.insert tables.(i) ~key:j ~value:w;
      Hc.insert tables.(j) ~key:i ~value:w);
  (* ccmorph placements reorganize every chain of every table, once,
     after construction (the structure never changes afterwards) *)
  (match ctx.Common.morph_params with
  | None -> ()
  | Some p ->
      let roots = Array.concat (Array.to_list (Array.map Hc.bucket_heads tables)) in
      let desc =
        Ccsl.Ccmorph.plain_desc ~elem_bytes:Hc.entry_bytes ~kid_offsets:[| 0 |]
      in
      let r = Ccsl.Ccmorph.morph_forest ~params:p m desc ~roots in
      Array.iteri
        (fun i t ->
          Hc.set_bucket_heads t
            (Array.sub r.Ccsl.Ccmorph.new_roots (i * buckets) buckets))
        tables);
  if not measure_whole then Machine.reset_measurement m;
  (* Prim's algorithm; dist lives in simulated memory like Olden's
     vertex structures. *)
  let bump = Alloc.Bump.create ~name:"mst-dist" m in
  let dist = Alloc.Bump.alloc bump (4 * n) in
  let inf = 0x3FFFFFFF in
  for v = 0 to n - 1 do
    Machine.store32 m (dist + (4 * v)) (if v = 0 then 0 else inf)
  done;
  let visited = Array.make n false in
  let total = ref 0 in
  for _ = 1 to n do
    (* BlueRule: linear scan for the lightest fringe vertex *)
    let best = ref (-1) in
    let best_d = ref max_int in
    for v = 0 to n - 1 do
      if not visited.(v) then begin
        let d = Machine.load32 m (dist + (4 * v)) in
        Machine.busy m 1;
        if d < !best_d then begin
          best := v;
          best_d := d
        end
      end
    done;
    let u = !best in
    visited.(u) <- true;
    total := !total + Machine.load32 m (dist + (4 * u));
    (* relax via hash lookups: for each unvisited vertex, is (u,v) an
       edge?  This is Olden's HashLookup-dominated inner loop. *)
    for v = 0 to n - 1 do
      if not visited.(v) then begin
        (if ctx.Common.sw_prefetch then
           (* greedy: prefetch v's bucket head cell for key u *)
           let cell =
             tables.(v).Hc.table + (4 * Hc.hash tables.(v) u)
           in
           Machine.prefetch m cell);
        (* weights are positive, so -1 marks a missing edge *)
        let w = Hc.find_or tables.(v) u ~default:(-1) in
        if w >= 0 then begin
          let d = Machine.load32 m (dist + (4 * v)) in
          if w < d then Machine.store32 m (dist + (4 * v)) w
        end
      end
    done
  done;
  Common.finish ctx ~checksum:!total
