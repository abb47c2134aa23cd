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
  Memory.load32 t.mem a

let[@inline] timed_store32 t a v =
  charge_store t (fast_latency t ~write:true a);
  Memory.store32 t.mem a v

let[@inline] timed_load32s t a =
  charge_load t (fast_latency t ~write:false a);
  Memory.load32s t.mem a

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

let uload32 t a = Memory.load32 t.mem a
let ustore32 t a v = Memory.store32 t.mem a v
let uload32s t a = Memory.load32s t.mem a
let cycles t = Cost.total t.cost
let snapshot t = Cost.snapshot t.cost

let reset_measurement t =
  Cost.reset t.cost;
  Hierarchy.reset_stats t.hier

let cold_start t =
  reset_measurement t;
  Hierarchy.clear t.hier
