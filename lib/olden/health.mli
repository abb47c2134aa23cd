(** Olden [health]: discrete-event simulation of the Columbian health-care
    system (Table 2: doubly-linked lists, max level 3, max time 3000).

    A 4-ary tree of villages; each village owns three doubly-linked
    patient lists (waiting, assess, inside).  Every time step patients
    arrive at leaf villages, progress through the lists, and either
    transfer to the parent village or finish treatment.  Elements are
    repeatedly added and removed, so, as the paper observes, the
    cache-conscious version periodically invokes [ccmorph] on the lists,
    and [ccmalloc]'s new-block strategy (which leaves room in blocks for
    future list elements) wins among allocators.

    List elements are the paper's Figure 4 [struct List] (12 bytes);
    patient records are separate 12-byte objects. *)

type params = {
  levels : int;  (** village tree depth; paper: 3 (21 villages) *)
  steps : int;  (** simulation length; paper: 3000 *)
  morph_interval : int;
      (** for the ccmorph placements: reorganize every N steps *)
  seed : int;
}

val default_params : params
(** levels 4 (341 villages), 365 steps, morph every 50 steps — sized so
    the live list population exceeds the simulated caches, the regime
    the paper's 3000-step run operates in. *)

val paper_params : params

val villages_of : params -> int

val run :
  ?params:params -> ?measure_whole:bool -> ?ctx:Common.ctx ->
  Common.placement -> Common.result
(** Measures the simulation loop including every periodic reorganization,
    as the paper does ("despite this overhead...").  The checksum folds
    the number of treated patients and the final list populations; it is
    placement-invariant. *)
