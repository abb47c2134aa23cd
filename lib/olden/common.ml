module Machine = Memsim.Machine
module Config = Memsim.Config
module Cache = Memsim.Cache
module Hierarchy = Memsim.Hierarchy

type placement =
  | Base
  | Hw_prefetch
  | Sw_prefetch
  | Ccmalloc_first_fit
  | Ccmalloc_closest
  | Ccmalloc_new_block
  | Ccmorph_cluster
  | Ccmorph_cluster_color
  | Null_hint_control

let all_placements =
  [
    Base;
    Hw_prefetch;
    Sw_prefetch;
    Ccmalloc_first_fit;
    Ccmalloc_closest;
    Ccmalloc_new_block;
    Ccmorph_cluster;
    Ccmorph_cluster_color;
  ]

let label = function
  | Base -> "B"
  | Hw_prefetch -> "HP"
  | Sw_prefetch -> "SP"
  | Ccmalloc_first_fit -> "FA"
  | Ccmalloc_closest -> "CA"
  | Ccmalloc_new_block -> "NA"
  | Ccmorph_cluster -> "Cl"
  | Ccmorph_cluster_color -> "Cl+Col"
  | Null_hint_control -> "NullHint"

let describe = function
  | Base -> "base (system malloc)"
  | Hw_prefetch -> "hardware prefetch"
  | Sw_prefetch -> "software prefetch (greedy)"
  | Ccmalloc_first_fit -> "ccmalloc first-fit"
  | Ccmalloc_closest -> "ccmalloc closest"
  | Ccmalloc_new_block -> "ccmalloc new-block"
  | Ccmorph_cluster -> "ccmorph clustering only"
  | Ccmorph_cluster_color -> "ccmorph clustering+coloring"
  | Null_hint_control -> "ccmalloc with null hints (control)"

let of_string s =
  match String.lowercase_ascii s with
  | "b" | "base" -> Some Base
  | "hp" | "hw-prefetch" -> Some Hw_prefetch
  | "sp" | "sw-prefetch" -> Some Sw_prefetch
  | "fa" | "first-fit" -> Some Ccmalloc_first_fit
  | "ca" | "closest" -> Some Ccmalloc_closest
  | "na" | "new-block" -> Some Ccmalloc_new_block
  | "cl" | "cluster" -> Some Ccmorph_cluster
  | "cl+col" | "cluster-color" -> Some Ccmorph_cluster_color
  | "nullhint" | "null-hint" -> Some Null_hint_control
  | _ -> None

type morph_gate = {
  g_should : unit -> bool;
  g_note : Ccsl.Ccmorph.result -> unit;
  g_session : Ccsl.Ccmorph.session option;
}

type ctx = {
  placement : placement;
  machine : Machine.t;
  alloc : Alloc.Allocator.t;
  sw_prefetch : bool;
  morph_params : Ccsl.Ccmorph.params option;
  cc : Ccsl.Ccmalloc.t option;
  mutable gate : morph_gate option;
}

let want_morph ctx ~default =
  ctx.morph_params <> None
  && (match ctx.gate with Some g -> g.g_should () | None -> default)

let morph_session ctx =
  match ctx.gate with Some g -> g.g_session | None -> None

let note_morph ctx r =
  match ctx.gate with Some g -> g.g_note r | None -> ()

let drop_hints (a : Alloc.Allocator.t) =
  {
    a with
    Alloc.Allocator.name = a.Alloc.Allocator.name ^ "-null-hint";
    alloc =
      (fun ?hint ?site bytes ->
        ignore hint;
        a.Alloc.Allocator.alloc ?site bytes);
  }

let make_ctx ?config placement =
  let config =
    match config with
    | Some c -> c
    | None -> Config.rsim_table1 ~hw_prefetch:(placement = Hw_prefetch) ()
  in
  let machine = Machine.create config in
  let malloc () = Alloc.Malloc.allocator (Alloc.Malloc.create machine) in
  let cc = ref None in
  let ccmalloc strategy =
    let c = Ccsl.Ccmalloc.create ~strategy machine in
    cc := Some c;
    Ccsl.Ccmalloc.allocator c
  in
  let alloc =
    match placement with
    | Base | Hw_prefetch | Sw_prefetch | Ccmorph_cluster
    | Ccmorph_cluster_color ->
        malloc ()
    | Ccmalloc_first_fit -> ccmalloc Ccsl.Ccmalloc.First_fit
    | Ccmalloc_closest -> ccmalloc Ccsl.Ccmalloc.Closest
    | Ccmalloc_new_block -> ccmalloc Ccsl.Ccmalloc.New_block
    | Null_hint_control -> drop_hints (ccmalloc Ccsl.Ccmalloc.New_block)
  in
  let morph_params =
    match placement with
    | Ccmorph_cluster ->
        Some { Ccsl.Ccmorph.default_params with Ccsl.Ccmorph.color = false }
    | Ccmorph_cluster_color -> Some Ccsl.Ccmorph.default_params
    | _ -> None
  in
  {
    placement;
    machine;
    alloc;
    sw_prefetch = placement = Sw_prefetch;
    morph_params;
    cc = !cc;
    gate = None;
  }

type result = {
  r_label : string;
  checksum : int;
  snapshot : Memsim.Cost.snapshot;
  l1_miss_rate : float;
  l2_miss_rate : float;
  l2_misses_per_ref : float;
  memory_bytes : int;
  structures_bytes : int;
}

let finish ctx ~checksum =
  let h = Machine.hierarchy ctx.machine in
  let stats = ctx.alloc.Alloc.Allocator.stats () in
  {
    r_label = label ctx.placement;
    checksum;
    snapshot = Machine.snapshot ctx.machine;
    l1_miss_rate = Cache.miss_rate (Cache.stats (Hierarchy.l1 h));
    l2_miss_rate = Cache.miss_rate (Cache.stats (Hierarchy.l2 h));
    l2_misses_per_ref =
      (let refs = Cache.accesses (Cache.stats (Hierarchy.l1 h)) in
       if refs = 0 then 0.
       else
         float_of_int (Cache.misses (Cache.stats (Hierarchy.l2 h)))
         /. float_of_int refs);
    memory_bytes = stats.Alloc.Allocator.bytes_reserved;
    structures_bytes = stats.Alloc.Allocator.bytes_requested;
  }

let normalized r ~base =
  float_of_int r.snapshot.Memsim.Cost.s_total
  /. float_of_int base.snapshot.Memsim.Cost.s_total

let pp_result ppf r =
  Format.fprintf ppf
    "%-8s cycles=%d busy=%d load=%d store=%d pf=%d l1=%.3f l2=%.3f mem=%dKB"
    r.r_label r.snapshot.Memsim.Cost.s_total r.snapshot.Memsim.Cost.s_busy
    r.snapshot.Memsim.Cost.s_load_stall r.snapshot.Memsim.Cost.s_store_stall
    r.snapshot.Memsim.Cost.s_prefetch_issue r.l1_miss_rate r.l2_miss_rate
    (r.memory_bytes / 1024)
