(** Cycle accounting in the style of the paper's Figure 7 breakdown.

    Every retired operation contributes one busy cycle; cycles a memory
    reference spends beyond the L1 hit time are charged as load or store
    stall (the paper's "charge the cycle to the first instruction that
    could not be retired", collapsed to an in-order approximation — see
    DESIGN.md §5 for why this preserves Figure 7's message). *)

type t = {
  mutable busy : int;
  mutable load_stall : int;
  mutable store_stall : int;
  mutable prefetch_issue : int;  (** busy cycles spent issuing prefetches *)
}

type snapshot = {
  s_busy : int;
  s_load_stall : int;
  s_store_stall : int;
  s_prefetch_issue : int;
  s_total : int;
}

val create : unit -> t
val total : t -> int
val reset : t -> unit
val snapshot : t -> snapshot
