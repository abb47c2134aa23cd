type t = { blocks : int array array; block_of_node : int array }

let of_segments ~n ~order ~starts ~nblocks =
  let blocks =
    Array.init nblocks (fun j ->
        Array.sub order starts.(j) (starts.(j + 1) - starts.(j)))
  in
  let block_of_node = Array.make n (-1) in
  for j = 0 to nblocks - 1 do
    for i = starts.(j) to starts.(j + 1) - 1 do
      block_of_node.(order.(i)) <- j
    done
  done;
  { blocks; block_of_node }

let chunk ~n ~order ~k =
  if k < 1 then invalid_arg "Layout.Plan.chunk: k < 1";
  if Array.length order <> n then
    invalid_arg "Layout.Plan.chunk: order must cover all nodes";
  let seen = Bytes.make n '\000' in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || Bytes.get seen v <> '\000' then
        invalid_arg "Layout.Plan.chunk: order is not a permutation";
      Bytes.set seen v '\001')
    order;
  let nblocks = (n + k - 1) / k in
  let starts = Array.init (nblocks + 1) (fun j -> min n (j * k)) in
  of_segments ~n ~order ~starts ~nblocks

let check plan ~n ~k =
  let seen = Array.make n false in
  Array.iter
    (fun nodes ->
      if Array.length nodes > k then failwith "Layout.check_plan: block too big";
      if Array.length nodes = 0 then failwith "Layout.check_plan: empty block";
      Array.iter
        (fun v ->
          if v < 0 || v >= n then failwith "Layout.check_plan: bad node id";
          if seen.(v) then failwith "Layout.check_plan: node in two blocks";
          seen.(v) <- true)
        nodes)
    plan.blocks;
  Array.iteri
    (fun i s ->
      if not s then
        failwith (Printf.sprintf "Layout.check_plan: node %d unplaced" i))
    seen;
  Array.iteri
    (fun v j ->
      if j < 0 || j >= Array.length plan.blocks then
        failwith "Layout.check_plan: bad block index";
      if not (Array.exists (fun w -> w = v) plan.blocks.(j)) then
        failwith "Layout.check_plan: inverse mapping wrong")
    plan.block_of_node
