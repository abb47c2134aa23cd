(** Shared scaffolding for the Olden benchmark reproductions (Figure 7).

    Every benchmark runs on the Table 1 RSIM machine under one of the
    paper's placement configurations; the axis labels match Figure 7's
    legend. *)

type placement =
  | Base  (** B: system malloc *)
  | Hw_prefetch  (** HP: base + hardware next-line prefetcher *)
  | Sw_prefetch  (** SP: base + greedy (Luk–Mowry) software prefetch *)
  | Ccmalloc_first_fit  (** FA *)
  | Ccmalloc_closest  (** CA *)
  | Ccmalloc_new_block  (** NA *)
  | Ccmorph_cluster  (** Cl: clustering only *)
  | Ccmorph_cluster_color  (** Cl+Col *)
  | Null_hint_control  (** §4.4 control: ccmalloc with all hints null *)

val all_placements : placement list
(** The eight Figure 7 configurations, in the figure's order (the control
    is excluded; ask for it explicitly). *)

val label : placement -> string
(** Figure 7 legend code: "B", "HP", "SP", "FA", "CA", "NA", "Cl",
    "Cl+Col", "NullHint". *)

val describe : placement -> string

val of_string : string -> placement option
(** Parse a placement from its {!label} or its long name ([base],
    [hw-prefetch], [sw-prefetch], [first-fit], [closest], [new-block],
    [cluster], [cluster-color], [null-hint]), ignoring case; [None] for
    anything else. *)

type morph_gate = {
  g_should : unit -> bool;
      (** consulted at each structure-safe reorganization point; [true]
          means "morph now" *)
  g_note : Ccsl.Ccmorph.result -> unit;
      (** told the outcome of every gated morph (cost feedback) *)
  g_session : Ccsl.Ccmorph.session option;
      (** address-recycling session threaded through repeated morphs *)
}
(** An adaptive reorganization policy, seen from a benchmark kernel.
    Kernels stay policy-agnostic: where they would morph on a fixed
    schedule they first consult the gate, and report every morph result
    back to it.  The concrete policy ([Adapt.Policy]) lives upstack —
    this record is the dependency-free seam. *)

type ctx = {
  placement : placement;
  machine : Memsim.Machine.t;
  alloc : Alloc.Allocator.t;
  sw_prefetch : bool;  (** kernels consult this to issue greedy prefetches *)
  morph_params : Ccsl.Ccmorph.params option;
      (** Some p for the two ccmorph placements, None otherwise *)
  cc : Ccsl.Ccmalloc.t option;
      (** the concrete ccmalloc behind [alloc], when the placement uses
          one — exposes placement counters to the telemetry layer *)
  mutable gate : morph_gate option;
      (** when set, replaces the kernels' fixed morph schedule *)
}

val want_morph : ctx -> default:bool -> bool
(** Should the kernel reorganize at this point?  [default] is the
    kernel's own fixed-schedule decision (e.g. [step mod interval = 0]),
    used when no gate is installed; requires [morph_params] either
    way. *)

val morph_session : ctx -> Ccsl.Ccmorph.session option
(** The gate's morph session, to pass to [Ccmorph.morph ?session]. *)

val note_morph : ctx -> Ccsl.Ccmorph.result -> unit
(** Report a completed morph to the gate (no-op without one). *)

val make_ctx : ?config:Memsim.Config.t -> placement -> ctx
(** Build the machine ([Config.rsim_table1] by default, with the hardware
    prefetcher enabled only for [Hw_prefetch]) and the matching
    allocator. *)

type result = {
  r_label : string;
  checksum : int;  (** must agree across placements for a given workload *)
  snapshot : Memsim.Cost.snapshot;
  l1_miss_rate : float;
  l2_miss_rate : float;
  l2_misses_per_ref : float;
      (** L2 misses per {e L1} reference.  [l2_miss_rate]'s denominator
          is L2 accesses, which shrinks as L1 locality improves — an arm
          that halves total misses can show a {e higher} local L2 ratio.
          This per-reference rate is the denominator-stable metric for
          comparing arms of the same workload. *)
  memory_bytes : int;  (** allocator footprint *)
  structures_bytes : int;  (** payload bytes actually requested *)
}

val finish : ctx -> checksum:int -> result
(** Snapshot the machine's counters into a result. *)

val normalized : result -> base:result -> float
(** Total cycles relative to the base run (Figure 7's y-axis). *)

val pp_result : Format.formatter -> result -> unit
