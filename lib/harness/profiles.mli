(** Locality profiling of whole benchmark runs ([ccsl-cli profile]).

    Runs an Olden benchmark from a cold start with the {!Obs.Profile}
    trio subscribed to the machine's access stream, then cross-checks
    the measured reuse-distance histogram against the simulator: the
    histogram's tail at the L2's capacity (in blocks) is what a
    fully-associative LRU cache of that size would miss, so its implied
    miss rate must land close to the simulated L2's misses per
    reference.  The whole run is measured ([measure_whole]) so the
    tracer and the cache statistics cover the same window. *)

type report = {
  bench : string;
  placement : Olden.Common.placement;
  result : Olden.Common.result;
  profile : Obs.Profile.t;
  hstats : Memsim.Hierarchy.stats;
  cc_counters : Ccsl.Ccmalloc.counters option;
      (** placement counters when the placement allocates via ccmalloc *)
  l2_capacity_blocks : int;
  traced_accesses : int;
  implied_l2_misses : int;
  implied_l2_miss_rate : float;
      (** reuse-distance tail at L2 capacity, per traced reference *)
  simulated_l2_misses : int;
  simulated_l2_miss_rate : float;
      (** simulated L2 misses per L1 reference (same denominator) *)
}

val default_config : Olden.Common.placement -> Memsim.Config.t
(** The default profiling machine: Table 1's capacities, block sizes and
    latencies with the L2 raised to 16 ways, so the histogram's
    fully-associative LRU model is comparable to the simulated L2
    (validating a stack model against a 2-way cache would conflate
    stack behaviour with set-mapping conflicts). *)

val run :
  ?scale:Experiments.scale ->
  ?seed:int ->
  ?placement:Olden.Common.placement ->
  ?config:Memsim.Config.t ->
  string ->
  report option
(** Profile one of {!Experiments.olden_kernels} by name (default
    placement [Olden.Common.Base]); [None] for an unknown name. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> Obs.Json.t
