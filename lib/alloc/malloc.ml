module A = Memsim.Addr
module Machine = Memsim.Machine

let header_bytes = 8

(* Instruction cost of the allocator fast path, charged as busy cycles. *)
let alloc_cycles = 12
let free_cycles = 8

(* Pages drawn from the machine's reservation broker when the
   wilderness runs dry. *)
let grow_pages = 16

(* One exact-size LIFO bin: a stack of chunk base addresses. *)
type bin = { size : int; chunks : Int_stack.t }

type t = {
  m : Machine.t;
  (* exact-size bins: carved size -> index into [bins] *)
  bin_of_size : Int_table.t;
  mutable bins : bin array;
  mutable nbins : int;
  mutable wilderness : int;  (* next free byte of the current region *)
  mutable wilderness_end : int;
  live : Int_table.t;  (* payload addr -> carved bytes *)
  mutable allocations : int;
  mutable frees : int;
  mutable bytes_requested : int;
  mutable bytes_reserved : int;
}

let no_bin = { size = 0; chunks = Int_stack.create 1 }

let create m =
  {
    m;
    bin_of_size = Int_table.create 16;
    bins = Array.make 8 no_bin;
    nbins = 0;
    wilderness = 0;
    wilderness_end = 0;
    live = Int_table.create 2048;
    allocations = 0;
    frees = 0;
    bytes_requested = 0;
    bytes_reserved = 0;
  }

let new_bin t size =
  if t.nbins = Array.length t.bins then begin
    let bigger = Array.make (2 * t.nbins) no_bin in
    Array.blit t.bins 0 bigger 0 t.nbins;
    t.bins <- bigger
  end;
  let b = { size; chunks = Int_stack.create 16 } in
  t.bins.(t.nbins) <- b;
  Int_table.replace t.bin_of_size size t.nbins;
  t.nbins <- t.nbins + 1;
  b

let bin t size =
  let i = Int_table.find_or t.bin_of_size size ~default:(-1) in
  if i >= 0 then Array.unsafe_get t.bins i else new_bin t size

let carve t need =
  if t.wilderness + need > t.wilderness_end then begin
    let pages =
      max grow_pages
        ((need + Machine.page_bytes t.m - 1) / Machine.page_bytes t.m)
    in
    let base = Machine.reserve_pages t.m pages in
    t.wilderness <- base;
    t.wilderness_end <- base + (pages * Machine.page_bytes t.m)
  end;
  let base = t.wilderness in
  t.wilderness <- base + need;
  base

let alloc t bytes =
  if bytes <= 0 then invalid_arg "Malloc.alloc: bytes <= 0";
  Machine.busy t.m alloc_cycles;
  let need = header_bytes + A.align_up bytes 8 in
  let b = bin t need in
  let base =
    if Int_stack.length b.chunks > 0 then
      (* LIFO bin reuse: the most recently freed chunk of this size,
         wherever in the heap it happens to sit *)
      Int_stack.pop b.chunks
    else carve t need
  in
  let payload = base + header_bytes in
  Int_table.replace t.live payload need;
  (* Header word records the carved size, as a real allocator would. *)
  Memsim.Memory.store32 (Machine.memory t.m) base need;
  Memsim.Memory.fill_zero (Machine.memory t.m) payload ~bytes;
  t.allocations <- t.allocations + 1;
  t.bytes_requested <- t.bytes_requested + bytes;
  t.bytes_reserved <- t.bytes_reserved + need;
  payload

let free t payload =
  Machine.busy t.m free_cycles;
  let carved = Int_table.find_or t.live payload ~default:0 in
  if carved = 0 then invalid_arg "Malloc.free: not an allocated address";
  Int_table.remove t.live payload;
  t.frees <- t.frees + 1;
  t.bytes_reserved <- t.bytes_reserved - carved;
  Int_stack.push (bin t carved).chunks (payload - header_bytes)

let free_bytes t =
  let sum = ref 0 in
  for i = 0 to t.nbins - 1 do
    let b = t.bins.(i) in
    sum := !sum + (b.size * Int_stack.length b.chunks)
  done;
  !sum

let check_invariants t =
  (* live payload ranges and binned chunk ranges must be disjoint *)
  let ranges = ref [] in
  Int_table.iter
    (fun payload carved -> ranges := (payload - header_bytes, carved) :: !ranges)
    t.live;
  for i = 0 to t.nbins - 1 do
    let b = t.bins.(i) in
    for j = 0 to Int_stack.length b.chunks - 1 do
      ranges := (Int_stack.get b.chunks j, b.size) :: !ranges
    done
  done;
  let sorted = List.sort compare !ranges in
  let rec go = function
    | [] | [ _ ] -> ()
    | (a1, s1) :: ((a2, _) :: _ as rest) ->
        if a1 + s1 > a2 then failwith "Malloc: overlapping chunks";
        go rest
  in
  go sorted;
  if List.exists (fun (a, s) -> a <= 0 || s <= 0) sorted then
    failwith "Malloc: degenerate chunk"

let allocator t =
  {
    Allocator.name = "malloc";
    alloc = (fun ?hint ?site bytes -> ignore hint; ignore site; alloc t bytes);
    free = (fun a -> free t a);
    owns = (fun a -> Int_table.mem t.live a);
    stats =
      (fun () ->
        {
          Allocator.allocations = t.allocations;
          frees = t.frees;
          bytes_requested = t.bytes_requested;
          bytes_reserved = t.bytes_reserved;
        });
  }
