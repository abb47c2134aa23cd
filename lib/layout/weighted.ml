(* Binary max-heap over (weight, id) pairs held in two parallel arrays
   (an unboxed float array and an int array): higher weight first, lower
   id on ties, so the layout is deterministic for any weight function.
   Every node is pushed at most once, so [n] slots never overflow. *)
type heap = { w : float array; id : int array; mutable len : int }

(* slot [i] has lower priority than slot [j] *)
let below h i j =
  h.w.(i) < h.w.(j) || (h.w.(i) = h.w.(j) && h.id.(i) > h.id.(j))

let swap h i j =
  let w = h.w.(i) and id = h.id.(i) in
  h.w.(i) <- h.w.(j);
  h.id.(i) <- h.id.(j);
  h.w.(j) <- w;
  h.id.(j) <- id

(* Pushes node [v] with its weight [w.(v)], read here rather than
   passed in so that no float is boxed per push. *)
let heap_push h (w : float array) v =
  let i = ref h.len in
  h.len <- h.len + 1;
  h.w.(!i) <- w.(v);
  h.id.(!i) <- v;
  while !i > 0 && below h ((!i - 1) / 2) !i do
    let p = (!i - 1) / 2 in
    swap h p !i;
    i := p
  done

let heap_pop h =
  let top = h.id.(0) in
  h.len <- h.len - 1;
  h.w.(0) <- h.w.(h.len);
  h.id.(0) <- h.id.(h.len);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let best = ref !i in
    if l < h.len && below h !best l then best := l;
    if r < h.len && below h !best r then best := r;
    if !best = !i then continue := false
    else begin
      swap h !best !i;
      i := !best
    end
  done;
  top

let plan (t : Tree.t) ~k =
  if k < 1 then invalid_arg "Layout.Weighted: k < 1";
  let n = t.Tree.n and first_kid = t.Tree.first_kid in
  let w =
    match t.Tree.weight with
    | None -> Array.make n 1.0
    | Some f -> Array.init n f
  in
  let frontier = { w = Array.make n 0.; id = Array.make n 0; len = 0 } in
  let push v = heap_push frontier w v in
  for r = 0 to t.Tree.nroots - 1 do
    push r
  done;
  let members = Array.make n 0 in
  let m = ref 0 in
  let bstart = Array.make (n + 1) 0 in
  let nblocks = ref 0 in
  while frontier.len > 0 do
    let start = !m in
    let cur = ref (heap_pop frontier) in
    while !m - start < k && !cur >= 0 do
      let v = !cur in
      members.(!m) <- v;
      incr m;
      (* The hottest child continues the chain in this block (the
         leftmost on ties); its siblings join the frontier.  When the
         chain bottoms out but the block still has room, refill from
         the globally hottest frontier node — merging under-full hot
         paths keeps density. *)
      let hot = ref (-1) in
      for c = first_kid.(v) to first_kid.(v + 1) - 1 do
        if not (!hot >= 0 && w.(c) <= w.(!hot)) then hot := c
      done;
      let full = !m - start >= k in
      if !hot < 0 then
        cur := if (not full) && frontier.len > 0 then heap_pop frontier else -1
      else begin
        for c = first_kid.(v) to first_kid.(v + 1) - 1 do
          if c <> !hot then push c
        done;
        if not full then cur := !hot
        else begin
          push !hot;
          cur := -1
        end
      end
    done;
    bstart.(!nblocks) <- start;
    incr nblocks
  done;
  bstart.(!nblocks) <- !m;
  Plan.of_segments ~k ~n ~order:members ~starts:bstart ~nblocks:!nblocks
