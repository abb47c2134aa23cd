let plan (t : Tree.t) ~k =
  if k < 1 then invalid_arg "Layout.Subtree: k < 1";
  let n = t.Tree.n and first_kid = t.Tree.first_kid in
  (* Two FIFOs over flat arrays.  Every node enters the cluster-root
     queue at most once and a cluster's frontier at most once, so
     neither needs to wrap or grow. *)
  let cluster_roots = Array.make n 0 in
  for r = 0 to t.Tree.nroots - 1 do
    cluster_roots.(r) <- r
  done;
  let ch = ref 0 and ct = ref t.Tree.nroots in
  let frontier = Array.make n 0 in
  let members = Array.make n 0 in
  let m = ref 0 in
  let bstart = Array.make (n + 1) 0 in
  let nblocks = ref 0 in
  while !ch < !ct do
    let root = cluster_roots.(!ch) in
    incr ch;
    (* BFS within the subtree, taking up to k nodes for this block. *)
    let start = !m in
    let fh = ref 0 and ft = ref 1 in
    frontier.(0) <- root;
    while !m - start < k && !fh < !ft do
      let v = frontier.(!fh) in
      incr fh;
      members.(!m) <- v;
      incr m;
      for c = first_kid.(v) to first_kid.(v + 1) - 1 do
        frontier.(!ft) <- c;
        incr ft
      done
    done;
    (* Whatever remains on the frontier starts future clusters. *)
    for i = !fh to !ft - 1 do
      cluster_roots.(!ct) <- frontier.(i);
      incr ct
    done;
    (* Consecutive clusters smaller than k share a block: deep in the
       structure subtrees run out of descendants (leaves cluster alone)
       and forest roots may head short chains; packing them in emission
       order preserves the near-root-first property while restoring
       density.  The previous block ends where this cluster starts. *)
    if not (!nblocks > 0 && !m - bstart.(!nblocks - 1) <= k) then begin
      bstart.(!nblocks) <- start;
      incr nblocks
    end
  done;
  bstart.(!nblocks) <- !m;
  Plan.of_segments ~k ~n ~order:members ~starts:bstart ~nblocks:!nblocks
