type t = {
  n : int;
  nroots : int;
  first_kid : int array;
  weight : (int -> float) option;
}

(* The child ranges run, in order and without gaps, from [nroots] to [n]:
   each id in [nroots, n) has exactly one parent.  A parent that is
   lower than its children rules out cycles, so the arrays are a forest
   and a sweep from the roots reaches every node. *)
let of_bfs ?weight ~n ~nroots ~first_kid () =
  if n < 0 then invalid_arg "Layout.Tree: n < 0";
  if Array.length first_kid <= n then
    invalid_arg "Layout.Tree: first_kid has fewer than n + 1 slots";
  if first_kid.(0) <> nroots || first_kid.(n) <> n then
    invalid_arg "Layout.Tree: first_kid does not run from nroots to n";
  for v = 0 to n - 1 do
    if first_kid.(v + 1) < first_kid.(v) then
      invalid_arg "Layout.Tree: first_kid decreases";
    if first_kid.(v) <= v then
      invalid_arg "Layout.Tree: a child does not come after its parent"
  done;
  { n; nroots; first_kid; weight }

(* Breadth-first from the roots; [ids] is its own queue. *)
let of_kids ?weight ~n ~kids ~roots () =
  if n < 0 then invalid_arg "Layout.Tree: n < 0";
  let ids = Array.make n 0 and first_kid = Array.make (n + 1) n in
  let seen = Bytes.make n '\000' in
  let count = ref 0 in
  let add v =
    if v < 0 || v >= n then invalid_arg "Layout.Tree: node id out of range";
    if Bytes.get seen v <> '\000' then
      invalid_arg "Layout.Tree: node reached twice";
    Bytes.set seen v '\001';
    ids.(!count) <- v;
    incr count
  in
  List.iter add roots;
  let nroots = !count in
  let i = ref 0 in
  while !i < !count do
    first_kid.(!i) <- !count;
    List.iter add (kids ids.(!i));
    incr i
  done;
  if !count < n then
    invalid_arg
      (Printf.sprintf "Layout.Tree: node %d unreachable from roots"
         (Bytes.index seen '\000'));
  let weight = Option.map (fun w i -> w ids.(i)) weight in
  ({ n; nroots; first_kid; weight }, ids)

(* Iterative preorder over an int stack: the trees here are as deep as
   the structures we morph (a degenerate list is depth n).  Pushing a
   node's kids right to left leaves the leftmost on top, which yields
   exactly the recursive left-to-right preorder.  Each node is pushed
   once, so the stack never holds more than [n]. *)
let dfs_order t =
  let order = Array.make t.n 0 in
  let stack = Array.make t.n 0 in
  let sp = ref 0 in
  for r = t.nroots - 1 downto 0 do
    stack.(!sp) <- r;
    incr sp
  done;
  let pos = ref 0 in
  while !sp > 0 do
    decr sp;
    let v = stack.(!sp) in
    order.(!pos) <- v;
    incr pos;
    for c = t.first_kid.(v + 1) - 1 downto t.first_kid.(v) do
      stack.(!sp) <- c;
      incr sp
    done
  done;
  order

(* Children come after their parent, so a sweep from the last node back
   sees every child's height before its parent needs it. *)
let heights t =
  let h = Array.make t.n 1 in
  for v = t.n - 1 downto 0 do
    for c = t.first_kid.(v) to t.first_kid.(v + 1) - 1 do
      if h.(c) + 1 > h.(v) then h.(v) <- h.(c) + 1
    done
  done;
  h
