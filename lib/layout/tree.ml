type t = {
  n : int;
  kid_start : int array;
  kid : int array;
  roots : int array;
  weight : (int -> float) option;
}

(* Every id in range and claimed at most once (as a root or as some
   node's child), then a breadth-first sweep from the roots must reach
   all [n] ids.  With each id claimed at most once no sweep can revisit
   a node, so reaching [n] of them proves the arrays are a forest. *)
let validate ~n ~kid_start ~kid ~roots =
  if n < 0 then invalid_arg "Layout.Tree: n < 0";
  if
    Array.length kid_start <> n + 1
    || kid_start.(0) <> 0
    || kid_start.(n) <> Array.length kid
  then invalid_arg "Layout.Tree: kid_start does not index kid";
  for v = 0 to n - 1 do
    if kid_start.(v) > kid_start.(v + 1) then
      invalid_arg "Layout.Tree: kid_start does not index kid"
  done;
  let claimed = Bytes.make n '\000' in
  let claim ids =
    for i = 0 to Array.length ids - 1 do
      let v = ids.(i) in
      if v < 0 || v >= n then invalid_arg "Layout.Tree: node id out of range";
      if Bytes.unsafe_get claimed v <> '\000' then
        invalid_arg "Layout.Tree: node reached twice";
      Bytes.unsafe_set claimed v '\001'
    done
  in
  claim roots;
  claim kid;
  let queue = Array.make n 0 in
  let tail = ref 0 in
  Array.iter
    (fun r ->
      queue.(!tail) <- r;
      incr tail)
    roots;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for i = kid_start.(v) to kid_start.(v + 1) - 1 do
      queue.(!tail) <- kid.(i);
      incr tail
    done
  done;
  if !tail <> n then begin
    (* mark the reached ids; the first unmarked one names the fault *)
    Bytes.fill claimed 0 n '\000';
    for i = 0 to !tail - 1 do
      Bytes.unsafe_set claimed queue.(i) '\001'
    done;
    let v = Bytes.index claimed '\000' in
    invalid_arg (Printf.sprintf "Layout.Tree: node %d unreachable from roots" v)
  end

let of_arrays ?weight ~n ~kid_start ~kid ~roots () =
  validate ~n ~kid_start ~kid ~roots;
  { n; kid_start; kid; roots; weight }

let v ?weight ~n ~kids ~roots () =
  if n < 0 then invalid_arg "Layout.Tree: n < 0";
  let lists = Array.init n kids in
  let kid_start = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    kid_start.(v + 1) <- kid_start.(v) + List.length lists.(v)
  done;
  let kid = Array.make kid_start.(n) 0 in
  Array.iteri
    (fun v l -> List.iteri (fun i c -> kid.(kid_start.(v) + i) <- c) l)
    lists;
  of_arrays ?weight ~n ~kid_start ~kid ~roots:(Array.of_list roots) ()

(* Iterative preorder over an int stack: the trees here are as deep as
   the structures we morph (a degenerate list is depth n).  Pushing a
   node's kids right to left leaves the leftmost on top, which yields
   exactly the recursive left-to-right preorder.  Each node is pushed
   once, so the stack never holds more than [n]. *)
let dfs_order t =
  let order = Array.make t.n 0 in
  let stack = Array.make t.n 0 in
  let sp = ref 0 in
  for i = Array.length t.roots - 1 downto 0 do
    stack.(!sp) <- t.roots.(i);
    incr sp
  done;
  let pos = ref 0 in
  while !sp > 0 do
    decr sp;
    let v = stack.(!sp) in
    order.(!pos) <- v;
    incr pos;
    for i = t.kid_start.(v + 1) - 1 downto t.kid_start.(v) do
      stack.(!sp) <- t.kid.(i);
      incr sp
    done
  done;
  order

let heights t =
  let order = dfs_order t in
  let h = Array.make t.n 1 in
  (* Children appear after their parent in preorder, so a reverse sweep
     sees every child's height before its parent needs it. *)
  for i = t.n - 1 downto 0 do
    let v = order.(i) in
    for j = t.kid_start.(v) to t.kid_start.(v + 1) - 1 do
      let c = t.kid.(j) in
      if h.(c) + 1 > h.(v) then h.(v) <- h.(c) + 1
    done
  done;
  h
