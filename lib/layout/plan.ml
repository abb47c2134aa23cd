type t = { order : int array; starts : int array; block_of_node : int array }

let nblocks p = Array.length p.starts - 1

(* Nonempty blocks of distinct in-range nodes place
   [starts.(nblocks) - starts.(0)] different nodes, so all [n] are
   placed exactly when that count is [n]. *)
let of_segments ~k ~n ~order ~starts ~nblocks =
  if k < 1 then invalid_arg "Layout.Plan: k < 1";
  let block_of_node = Array.make n (-1) in
  for j = 0 to nblocks - 1 do
    let len = starts.(j + 1) - starts.(j) in
    if len < 1 then invalid_arg (Printf.sprintf "Layout.Plan: block %d is empty" j);
    if len > k then
      invalid_arg
        (Printf.sprintf "Layout.Plan: block %d holds more than %d nodes" j k);
    for i = starts.(j) to starts.(j + 1) - 1 do
      let v = order.(i) in
      if v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Layout.Plan: node %d out of range" v);
      if block_of_node.(v) >= 0 then
        invalid_arg (Printf.sprintf "Layout.Plan: node %d placed twice" v);
      block_of_node.(v) <- j
    done
  done;
  if starts.(nblocks) - starts.(0) <> n then begin
    let v = ref 0 in
    while block_of_node.(!v) >= 0 do
      incr v
    done;
    invalid_arg (Printf.sprintf "Layout.Plan: node %d never placed" !v)
  end;
  let starts =
    if Array.length starts = nblocks + 1 then starts
    else Array.sub starts 0 (nblocks + 1)
  in
  { order; starts; block_of_node }

let chunk ~n ~order ~k =
  if k < 1 then invalid_arg "Layout.Plan: k < 1";
  let len = Array.length order in
  let nblocks = (len + k - 1) / k in
  of_segments ~k ~n ~order
    ~starts:(Array.init (nblocks + 1) (fun j -> min len (j * k)))
    ~nblocks
