module A = Memsim.Addr
module Machine = Memsim.Machine

type t = {
  m : Machine.t;
  name : string;
  mutable cur : int;  (* next free byte *)
  mutable limit : int;  (* end of current region *)
  mutable allocations : int;
  mutable bytes_requested : int;
  mutable bytes_reserved : int;
}

let create ?(name = "bump") m =
  { m; name; cur = 0; limit = 0; allocations = 0;
    bytes_requested = 0; bytes_reserved = 0 }

let alloc_cycles = 4

(* Pages reserved per region (more when one object needs more). *)
let grow_pages = 16

let alloc t ?(align = 4) bytes =
  if bytes <= 0 then invalid_arg "Bump.alloc: bytes <= 0";
  Machine.busy t.m alloc_cycles;
  let aligned = A.align_up t.cur align in
  if aligned + bytes > t.limit then begin
    let pages =
      max grow_pages
        ((bytes + Machine.page_bytes t.m - 1) / Machine.page_bytes t.m)
    in
    let base = Machine.reserve_pages t.m pages in
    t.cur <- base;
    t.limit <- base + (pages * Machine.page_bytes t.m)
  end;
  let addr = A.align_up t.cur align in
  t.cur <- addr + bytes;
  t.allocations <- t.allocations + 1;
  t.bytes_requested <- t.bytes_requested + bytes;
  t.bytes_reserved <- t.bytes_reserved + bytes + (addr - A.align_down addr 1);
  addr

let used_bytes t = t.bytes_reserved

let allocator t =
  {
    Allocator.name = t.name;
    alloc = (fun ?hint ?site bytes -> ignore hint; ignore site; alloc t bytes);
    free = (fun _ -> ());
    owns = (fun _ -> false);
    stats =
      (fun () ->
        {
          Allocator.allocations = t.allocations;
          frees = 0;
          bytes_requested = t.bytes_requested;
          bytes_reserved = t.bytes_reserved;
        });
  }
