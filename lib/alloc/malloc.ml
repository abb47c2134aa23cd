module A = Memsim.Addr
module Machine = Memsim.Machine

let header_bytes = 8

(* Instruction cost of the allocator fast path, charged as busy cycles. *)
let alloc_cycles = 12
let free_cycles = 8

(* Pages drawn from the machine's reservation broker when the
   wilderness runs dry. *)
let grow_pages = 16

type t = {
  m : Machine.t;
  (* exact-size LIFO bins of chunk base addresses, indexed by carved
     size / 8; [no_bin] for every size never carved *)
  mutable bins : Int_stack.t array;
  mutable wilderness : int;  (* next free byte of the current region *)
  mutable wilderness_end : int;
  live : Live_set.t;
      (* live payloads; each one's carved size is in its header word *)
  mutable allocations : int;
  mutable frees : int;
  mutable bytes_requested : int;
  mutable bytes_reserved : int;
}

let no_bin = Int_stack.create 0

let create m =
  {
    m;
    bins = Array.make 16 no_bin;
    wilderness = 0;
    wilderness_end = 0;
    live = Live_set.create ~page_bytes:(Machine.page_bytes m);
    allocations = 0;
    frees = 0;
    bytes_requested = 0;
    bytes_reserved = 0;
  }

(* The bin of carved size [need], created (and [bins] grown) on first
   use. *)
let bin t need =
  let i = need lsr 3 in
  let n = Array.length t.bins in
  if i >= n then begin
    let bigger = Array.make (max (i + 1) (2 * n)) no_bin in
    Array.blit t.bins 0 bigger 0 n;
    t.bins <- bigger
  end;
  let b = Array.unsafe_get t.bins i in
  if b != no_bin then b
  else begin
    let b = Int_stack.create 16 in
    t.bins.(i) <- b;
    b
  end

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
    if Int_stack.length b > 0 then
      (* LIFO bin reuse: the most recently freed chunk of this size,
         wherever in the heap it happens to sit *)
      Int_stack.pop b
    else carve t need
  in
  let payload = base + header_bytes in
  Live_set.add t.live payload;
  (* The header word records the carved size, as a real allocator's
     does; [free] reads it back. *)
  Memsim.Memory.store32 (Machine.memory t.m) base need;
  Memsim.Memory.fill_zero (Machine.memory t.m) payload ~bytes;
  t.allocations <- t.allocations + 1;
  t.bytes_requested <- t.bytes_requested + bytes;
  t.bytes_reserved <- t.bytes_reserved + need;
  payload

let free t payload =
  Machine.busy t.m free_cycles;
  if not (Live_set.mem t.live payload) then
    invalid_arg "Malloc.free: not an allocated address";
  let base = payload - header_bytes in
  let carved = Memsim.Memory.load32 (Machine.memory t.m) base in
  (* Only a size some [alloc] carved has a bin; anything else in the
     header was written over the allocator's metadata. *)
  let i = carved lsr 3 in
  if carved land 7 <> 0 || i >= Array.length t.bins || t.bins.(i) == no_bin
  then invalid_arg "Malloc.free: header does not hold a carved size";
  Live_set.remove t.live payload;
  t.frees <- t.frees + 1;
  t.bytes_reserved <- t.bytes_reserved - carved;
  Int_stack.push t.bins.(i) base

let free_bytes t =
  let sum = ref 0 in
  Array.iteri (fun i b -> sum := !sum + (8 * i * Int_stack.length b)) t.bins;
  !sum

let check_invariants t =
  (* live payload ranges and binned chunk ranges must be disjoint *)
  let ranges = ref [] in
  Live_set.iter
    (fun payload ->
      let base = payload - header_bytes in
      ranges := (base, Memsim.Memory.load32 (Machine.memory t.m) base) :: !ranges)
    t.live;
  Array.iteri
    (fun i b ->
      for j = 0 to Int_stack.length b - 1 do
        ranges := (Int_stack.get b j, 8 * i) :: !ranges
      done)
    t.bins;
  let by_start (a1, s1) (a2, s2) =
    if a1 <> a2 then Int.compare a1 a2 else Int.compare s1 s2
  in
  let sorted = List.sort by_start !ranges in
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
    owns = (fun a -> Live_set.mem t.live a);
    stats =
      (fun () ->
        {
          Allocator.allocations = t.allocations;
          frees = t.frees;
          bytes_requested = t.bytes_requested;
          bytes_reserved = t.bytes_reserved;
        });
  }
