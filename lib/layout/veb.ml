let order (t : Tree.t) =
  let n = t.Tree.n and first_kid = t.Tree.first_kid in
  (* heights drives the split rule *)
  let heights = Tree.heights t in
  let order = Array.make n (-1) in
  let pos = ref 0 in
  (* [at_depth r d] appends the descendants of [r] at depth exactly [d]
     (relative to [r]), left to right, to [found]: an iterative preorder
     over parallel node/depth stacks (the subtree can be a depth-n
     chain).  Each node is pushed at most once per call. *)
  let stack = Array.make n 0 and depth = Array.make n 0 in
  let found = Array.make n 0 in
  let found_top = ref 0 in
  let at_depth r d =
    stack.(0) <- r;
    depth.(0) <- 0;
    let sp = ref 1 in
    while !sp > 0 do
      decr sp;
      let v = stack.(!sp) and dv = depth.(!sp) in
      if dv = d then begin
        found.(!found_top) <- v;
        incr found_top
      end
      else
        for c = first_kid.(v + 1) - 1 downto first_kid.(v) do
          stack.(!sp) <- c;
          depth.(!sp) <- dv + 1;
          incr sp
        done
    done
  in
  (* [lay r limit] emits every descendant of [r] at depth < limit:
     first the top [limit/2] levels recursively, then each depth-
     [limit/2] subtree recursively.  limit >= 2 implies 1 <= top < limit,
     so both halves shrink and the recursion depth is O(log limit).
     [found] is a stack of segments, one per active frame; the frames'
     nodes are disjoint, so [n] slots suffice. *)
  let rec lay r limit =
    if limit <= 1 then begin
      order.(!pos) <- r;
      incr pos
    end
    else begin
      let top = limit / 2 in
      lay r top;
      let start = !found_top in
      at_depth r top;
      for i = start to !found_top - 1 do
        let b = found.(i) in
        lay b (min (limit - top) heights.(b))
      done;
      found_top := start
    end
  in
  for r = 0 to t.Tree.nroots - 1 do
    lay r heights.(r)
  done;
  order
