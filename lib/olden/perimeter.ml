module A = Memsim.Addr
module Machine = Memsim.Machine
module Qt = Structures.Quadtree

type params = { size : int; seed : int }

let default_params = { size = 1024; seed = 7 }
let paper_params = { size = 4096; seed = 7 }

(* The image: a disc of radius 3/8 * size centred in the image.  All
   geometry is in doubled integer coordinates so pixel centres are exact. *)

let radius2x p = 3 * p.size / 4  (* 2 * (3/8 size) *)

let inside2x p x2 y2 =
  let c = p.size (* 2 * size/2 *) in
  let dx = x2 - c and dy = y2 - c in
  let r = radius2x p in
  (dx * dx) + (dy * dy) <= r * r

let is_black_pixel p ~x ~y = inside2x p ((2 * x) + 1) ((2 * y) + 1)

(* Continuous containment tests against the disc (convex, so corner tests
   suffice for inclusion; clamped-point distance for exclusion). *)
let square_state p ~x ~y ~size =
  if size = 1 then if is_black_pixel p ~x ~y then Qt.Black else Qt.White
  else begin
    let x0 = 2 * x and y0 = 2 * y and s = 2 * size in
    let corners_inside =
      inside2x p x0 y0
      && inside2x p (x0 + s) y0
      && inside2x p x0 (y0 + s)
      && inside2x p (x0 + s) (y0 + s)
    in
    if corners_inside then Qt.Black
    else begin
      let c = p.size in
      let clamp v lo hi = max lo (min hi v) in
      let nx = clamp c x0 (x0 + s) and ny = clamp c y0 (y0 + s) in
      if not (inside2x p nx ny) then Qt.White else Qt.Grey
    end
  end

let oracle_perimeter p =
  let n = p.size in
  let black = Array.init n (fun x -> Array.init n (fun y -> is_black_pixel p ~x ~y)) in
  let total = ref 0 in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      if black.(x).(y) then begin
        let exposed dx dy =
          let x' = x + dx and y' = y + dy in
          x' < 0 || y' < 0 || x' >= n || y' >= n || not black.(x').(y')
        in
        if exposed 1 0 then incr total;
        if exposed (-1) 0 then incr total;
        if exposed 0 1 then incr total;
        if exposed 0 (-1) then incr total
      end
    done
  done;
  !total

(* --- Samet's neighbor-finding perimeter over the simulated quadtree --- *)

type dir = North | South | East | West

(* quadrant encoding from Structures.Quadtree: bit0 = east, bit1 = south *)
let adj d ct =
  match d with
  | North -> ct land 2 = 0
  | South -> ct land 2 = 2
  | East -> ct land 1 = 1
  | West -> ct land 1 = 0

let reflect d ct =
  match d with North | South -> ct lxor 2 | East | West -> ct lxor 1

(* the two quadrants of a neighbor that touch our shared boundary *)
let facing = function
  | North -> (2, 3)  (* neighbor above: its sw, se *)
  | South -> (0, 1)  (* neighbor below: its nw, ne *)
  | East -> (0, 2)  (* neighbor right: its nw, sw *)
  | West -> (1, 3)  (* neighbor left: its ne, se *)

let color m node = Machine.load32 m (node + Qt.off_color)
let childtype m node = Machine.load32s m (node + Qt.off_childtype)
let parent m node = Machine.load_ptr m (node + Qt.off_parent)
let kid m node q = Machine.load_ptr m (node + Qt.off_kid q)

let rec gtequal_adj_neighbor m node d =
  let p = parent m node in
  let ct = childtype m node in
  let q =
    if (not (A.is_null p)) && adj d ct then gtequal_adj_neighbor m p d else p
  in
  if (not (A.is_null q)) && color m q = 2 then kid m q (reflect d ct) else q

let rec sum_adjacent m q q1 q2 size =
  let c = color m q in
  if c = 2 then begin
    let a = sum_adjacent m (kid m q q1) q1 q2 (size / 2) in
    let b = sum_adjacent m (kid m q q2) q1 q2 (size / 2) in
    a + b
  end
  else if c = 0 then size
  else 0

(* A black leaf's exposed edge on side [d].  Top-level, so probing a
   leaf's four sides builds no closure. *)
let side m node size d =
  let neighbor = gtequal_adj_neighbor m node d in
  Machine.busy m 1;
  if A.is_null neighbor then size
  else
    match color m neighbor with
    | 0 -> size
    | 2 ->
        let q1, q2 = facing d in
        sum_adjacent m neighbor q1 q2 size
    | _ -> 0

let rec perimeter (ctx : Common.ctx) node size =
  let m = ctx.Common.machine in
  let c = color m node in
  if c = 2 then begin
    if ctx.Common.sw_prefetch then
      for q = 0 to 3 do
        Machine.prefetch m (Machine.uload32 m (node + Qt.off_kid q))
      done;
    let half = size / 2 in
    (* explicit lets keep the walk in nw-ne-sw-se (allocation) order;
       a bare [+] chain would evaluate right-to-left *)
    let p0 = perimeter ctx (kid m node 0) half in
    let p1 = perimeter ctx (kid m node 1) half in
    let p2 = perimeter ctx (kid m node 2) half in
    let p3 = perimeter ctx (kid m node 3) half in
    p0 + p1 + p2 + p3
  end
  else if c = 1 then begin
    let n = side m node size North in
    let s = side m node size South in
    let e = side m node size East in
    let w = side m node size West in
    n + s + e + w
  end
  else 0

let run ?(params = default_params) ?(measure_whole = false) ?ctx placement =
  let ctx =
    match ctx with Some c -> c | None -> Common.make_ctx placement
  in
  let m = ctx.Common.machine in
  let tree =
    Qt.build
      ~hint_parent:true
      m ~alloc:ctx.Common.alloc ~size:params.size
      ~oracle:(fun ~x ~y ~size -> square_state params ~x ~y ~size)
  in
  (match ctx.Common.morph_params with
  | None -> ()
  | Some p ->
      (* the perimeter pass is one full depth-first walk (plus neighbor
         probes that stay close to the walk), so, as with treeadd, the
         programmer parameterizes ccmorph with depth-first clustering
         (paper Section 2.1's caveat about DFS access patterns); an
         explicitly requested engine is honored as given *)
      let p =
        match p.Ccsl.Ccmorph.cluster with
        | Ccsl.Ccmorph.Subtree ->
            { p with Ccsl.Ccmorph.cluster = Ccsl.Ccmorph.Depth_first }
        | _ -> p
      in
      let r = Ccsl.Ccmorph.morph ~params:p m Qt.desc ~root:tree.Qt.root in
      Qt.set_root tree r.Ccsl.Ccmorph.new_root);
  if not measure_whole then Machine.reset_measurement m;
  let total = perimeter ctx tree.Qt.root params.size in
  Common.finish ctx ~checksum:total
