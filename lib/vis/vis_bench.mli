(** The VIS macrobenchmark proxy (paper Section 4.3, Figure 6).

    Runs symbolic reachability over a mix of circuits with the BDD
    manager's nodes drawn from a chosen allocator.  The paper modified
    the 160,000-line VIS to allocate BDD nodes with [ccmalloc]'s
    new-block strategy and measured a 27% speedup on the UltraSPARC
    E5000; BDDs are DAGs, so [ccmorph] is not applicable. *)

type placement = Base | Ccmalloc of Ccsl.Ccmalloc.strategy

val placement_name : placement -> string

type result = {
  p_label : string;
  cycles : int;
  snapshot : Memsim.Cost.snapshot;
  l1_miss_rate : float;
  l2_miss_rate : float;
  checksum : int;
      (** folds every circuit's state count and iteration count *)
  total_nodes : int;
  mult_equivalent : bool;
      (** the synthesis-verification phase proved a*b = b*a *)
}

val run :
  ?circuits:Circuit.t list -> ?mult_bits:int -> placement -> result
(** Whole-run measurement (there is no separate build phase to
    fast-forward: BDD construction {e is} the workload) on the
    UltraSPARC E5000 machine with TLB.  The run chains reachability over
    [circuits] with an [mult_bits]-wide multiplier equivalence check
    ([0] disables it).  The reachability managers get [2^10]-entry
    unique tables and [2^11]-entry computed tables: densely loaded
    tables whose chains are actually walked, as in a production BDD
    package. *)

val verify : result -> Circuit.t list -> bool
(** Checks the checksum equals the one implied by the circuits'
    [expected_states]/[expected_iterations]. *)
