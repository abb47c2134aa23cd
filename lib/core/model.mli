(** The paper's analytic framework (Section 5).

    A data-structure-centric cache model for pointer-path accesses.  For a
    structure of [n] homogeneous elements under a random sequence of
    same-type pointer-path accesses:

    - [D] — average number of unique element references per access
      (e.g. [log2 (n+1)] for search in a balanced binary tree);
    - [K] — average number of co-resident same-block elements used by the
      access (spatial locality), [1 <= K <= ⌊b/e⌋];
    - [R] — elements already cached from prior accesses (temporal
      locality), [0 <= R <= min D (c*a*⌊b/e⌋)].

    Miss rate of one access:  [m = (1 - R/D) / K].
    Steady state (colored structures): [m_s = (1 - R_s/D) / K]. *)

type latencies = Memsim.Hierarchy.latencies

val miss_rate : d:float -> k:float -> r:float -> float
(** [(1 - r/d) / k].  @raise Invalid_argument unless [d > 0], [k >= 1],
    [0 <= r <= d]. *)

val memory_access_time :
  latencies -> ml1:float -> ml2:float -> refs:float -> float
(** [t_memory = (t_h + m_L1 t_mL1 + m_L1 m_L2 t_mL2) × refs]
    (Section 5.1). *)

val speedup :
  latencies ->
  naive:float * float -> cc:float * float -> float
(** Figure 8: ratio of naive to cache-conscious memory access time, for
    layout-only changes (reference counts cancel).  Arguments are
    [(m_L1, m_L2)] pairs. *)

val worst_case_naive : float * float
(** [(1., 1.)] — each block holds one element, no reuse (Section 5.2). *)

(** Closed forms for colored, subtree-clustered binary trees
    (Section 5.3, Figure 9). *)
module Ctree : sig
  val d : n:int -> float
  (** [log2 (n+1)]: nodes examined by a search. *)

  val k : block_elems:int -> float
  (** [K = log2 (k+1)] where [k] elements share a block. *)

  val r_s : sets:int -> assoc:int -> block_elems:int -> color_frac:float -> float
  (** [R_s = log2 (color_frac * c * k * a + 1)]: the colored top of the
      tree is permanently resident. *)

  val miss_rate :
    n:int -> sets:int -> assoc:int -> block_elems:int -> color_frac:float ->
    float
  (** Figure 9's steady-state L2 miss rate: {!Model.miss_rate} with
      [R = min D R_s] (trees that fit entirely in the hot region never
      miss in steady state). *)

  val predicted_speedup :
    lat:latencies -> n:int -> sets:int -> assoc:int -> block_elems:int ->
    color_frac:float -> ml1_cc:float -> float
  (** Figure 10's predicted speedup of a transparent C-tree over a naive
      (random-layout) tree.  [ml1_cc] is the assumed L1 miss rate of the
      cache-conscious tree (the paper's validation assumes 1.0 because a
      16 KB / 16 B-block L1 provides practically no clustering or
      reuse for 20-byte nodes). *)
end
