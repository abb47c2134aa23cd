type subscription = int

type t = {
  cfg : Config.t;
  mem : Memory.t;
  hier : Hierarchy.t;
  cost : Cost.t;
  (* hot-path shortcuts, all fixed at creation: the TLB, the L1 cache and
     its hit latency let the word accessors translate and serve L1 hits
     themselves *)
  tlb : Tlb.t option;
  l1 : Cache.t;
  l1_hit_lat : int;
  mutable brk : Addr.t;
  mutable subs : (subscription * (bool -> Addr.t -> unit)) list;
  mutable next_sub : int;
  (* fan-out over subs, cached so the per-access observer check
     stays a single option match *)
  mutable notify : (bool -> Addr.t -> unit) option;
}

let create (cfg : Config.t) =
  let hier =
    Hierarchy.create ?tlb:cfg.tlb ~hw_prefetch:cfg.hw_prefetch
      ~mshrs:cfg.mshrs ~l1:cfg.l1 ~l2:cfg.l2 ~latencies:cfg.latencies ()
  in
  {
    cfg;
    mem = Memory.create ~page_bytes:cfg.page_bytes;
    hier;
    cost = Cost.create ();
    tlb = Hierarchy.tlb hier;
    l1 = Hierarchy.l1 hier;
    l1_hit_lat = (Hierarchy.latencies hier).Hierarchy.l1_hit;
    (* Start allocation at one page so address 0 stays null. *)
    brk = cfg.page_bytes;
    subs = [];
    next_sub = 0;
    notify = None;
  }

let config t = t.cfg
let memory t = t.mem
let hierarchy t = t.hier
let cost t = t.cost
let page_bytes t = t.cfg.page_bytes
let l2_block_bytes t = t.cfg.l2.Cache_config.block_bytes
let l1_block_bytes t = t.cfg.l1.Cache_config.block_bytes

let reserve t ~bytes ~align =
  if bytes <= 0 then invalid_arg "Machine.reserve: bytes <= 0";
  let base = Addr.align_up t.brk align in
  t.brk <- base + bytes;
  base

let reserve_pages t n = reserve t ~bytes:(n * t.cfg.page_bytes) ~align:t.cfg.page_bytes
let reserved_bytes t = t.brk

let[@inline] charge_load t lat =
  t.cost.Cost.busy <- t.cost.Cost.busy + 1;
  t.cost.Cost.load_stall <- t.cost.Cost.load_stall + (lat - 1)

let[@inline] charge_store t lat =
  t.cost.Cost.busy <- t.cost.Cost.busy + 1;
  t.cost.Cost.store_stall <- t.cost.Cost.store_stall + (lat - 1)

let now t = Cost.total t.cost

let trace t write a =
  match t.notify with None -> () | Some f -> f write a

let rebuild_notify t =
  (* [subs] is a prepend-only list (O(1) subscribe); the fan-out closure
     sorts it by subscription id here, once per (un)subscribe, so
     observers still run in subscription order. *)
  t.notify <-
    (match t.subs with
    | [] -> None
    | [ (_, f) ] -> Some f
    | subs ->
        let subs =
          List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) subs
        in
        Some (fun w a -> List.iter (fun (_, f) -> f w a) subs))

let subscribe t f =
  let id = t.next_sub in
  t.next_sub <- id + 1;
  t.subs <- (id, f) :: t.subs;
  rebuild_notify t;
  id

let unsubscribe t id =
  t.subs <- List.filter (fun (i, _) -> i <> id) t.subs;
  rebuild_notify t

(* Word reads and writes straight out of [Memory]'s page table: under
   -opaque a call into [Memory] is an unknown application.  Only a word
   inside a materialized page is served here.  An untouched page (the
   zero-length entry), a word straddling a page boundary and an index
   past the table's end fall back to [Memory]'s general accessor; so
   does every out-of-range address, since no page outside [0, 2^32) is
   ever materialized. *)

external swap32 : int32 -> int32 = "%bswap_int32"
external unsafe_get_32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set_32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] page (mem : Memory.t) a =
  let i = a lsr mem.page_shift in
  if i < Array.length mem.pages then Array.unsafe_get mem.pages i
  else Bytes.empty

let[@inline] mem_load32 (mem : Memory.t) a =
  let p = page mem a and o = a land mem.off_mask in
  if o + 4 <= Bytes.length p then
    let v = unsafe_get_32 p o in
    if Sys.big_endian then Int32.to_int (swap32 v) land 0xffffffff
    else Int32.to_int v land 0xffffffff
  else Memory.load32 mem a

let[@inline] mem_store32 (mem : Memory.t) a v =
  let p = page mem a and o = a land mem.off_mask in
  if o + 4 <= Bytes.length p then
    if Sys.big_endian then unsafe_set_32 p o (swap32 (Int32.of_int v))
    else unsafe_set_32 p o (Int32.of_int v)
  else Memory.store32 mem a v

let[@inline] mem_load32s mem a =
  let v = mem_load32 mem a in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* Timed word accessors: the observers (if any), then one monomorphic
   walk -- the TLB (if any) and the L1, and on an L1 miss the
   hierarchy's walk below it, clocked by [t.cost] so that the absolute
   cycle is summed only on the L2 misses that need it.  An L1 hit is one
   call into the cache model.

   The observer match wraps the whole access instead of falling through
   to a shared tail: after a join with the observer call the compiler
   reloads [t] from the stack, which cost a dependent pointer chase
   ~10% of its unobserved throughput (x86-64, OCaml 5, no flambda). *)

let[@inline] fast_latency t ~write a =
  let tlb = match t.tlb with None -> 0 | Some tlb -> Tlb.access tlb a in
  if Cache.access t.l1 ~write a then t.l1_hit_lat + tlb
  else Hierarchy.l1_miss t.hier t.cost ~write a + tlb

let[@inline] timed_load32 t a =
  charge_load t (fast_latency t ~write:false a);
  mem_load32 t.mem a

let[@inline] timed_store32 t a v =
  charge_store t (fast_latency t ~write:true a);
  mem_store32 t.mem a v

let[@inline] timed_load32s t a =
  charge_load t (fast_latency t ~write:false a);
  mem_load32s t.mem a

let load32 t a =
  match t.notify with
  | None -> timed_load32 t a
  | Some f ->
      f false a;
      timed_load32 t a

let store32 t a v =
  match t.notify with
  | None -> timed_store32 t a v
  | Some f ->
      f true a;
      timed_store32 t a v

let load32s t a =
  match t.notify with
  | None -> timed_load32s t a
  | Some f ->
      f false a;
      timed_load32s t a

let loadf t a =
  trace t false a;
  charge_load t (Hierarchy.access_range t.hier ~now:(now t) ~write:false a ~bytes:8);
  Memory.loadf t.mem a

let storef t a v =
  trace t true a;
  charge_store t (Hierarchy.access_range t.hier ~now:(now t) ~write:true a ~bytes:8);
  Memory.storef t.mem a v

let load_ptr = load32
let store_ptr = store32
let busy t n = t.cost.Cost.busy <- t.cost.Cost.busy + n

let prefetch t a =
  if not (Addr.is_null a) then begin
    t.cost.Cost.prefetch_issue <- t.cost.Cost.prefetch_issue + 1;
    Hierarchy.prefetch t.hier ~now:(now t) a
  end

let touch t ?(write = false) a ~bytes =
  trace t write a;
  let lat = Hierarchy.access_range t.hier ~now:(now t) ~write a ~bytes in
  if write then charge_store t lat else charge_load t lat

let uload32 t a = mem_load32 t.mem a
let ustore32 t a v = mem_store32 t.mem a v
let uload32s t a = mem_load32s t.mem a
let uloadf t a = Memory.loadf t.mem a
let ustoref t a v = Memory.storef t.mem a v
let cycles t = Cost.total t.cost
let snapshot t = Cost.snapshot t.cost

let reset_measurement t =
  Cost.reset t.cost;
  Hierarchy.reset_stats t.hier

let cold_start t =
  reset_measurement t;
  Hierarchy.clear t.hier
