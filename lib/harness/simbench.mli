(** Simulator self-benchmark: real-world throughput of the per-access
    simulation path.

    Three workloads — [raw-loads] (sequential sweep), [pointer-chase]
    (dependent chase over a clustered 16-byte-node ring, the layout the
    paper's placements produce) and [health-arm] (a full Olden health
    run under clustering+coloring).  Each row carries accesses/sec and
    the simulated statistics (cycles, misses, evictions, writebacks).

    [ccsl-cli simbench] prints it; [bench] archives it as
    [BENCH_simspeed.json], which the CI gate compares against: the
    simulated statistics exactly, the throughput with a 70 % floor. *)

type row = {
  w_name : string;
  w_seconds : float;  (** wall time of the fastest repeat *)
  w_accesses : int;  (** L1 demand accesses *)
  w_per_sec : float;
  w_cycles : int;
  w_l1_misses : int;
  w_l2_misses : int;
  w_evictions : int;  (** L2 *)
  w_writebacks : int;  (** L2 *)
}

type report = { machine : string; rows : row list }

val run : ?n:int -> unit -> report
(** [n] (default 2,000,000) is the access count for the two synthetic
    workloads; [health-arm] always runs the quick-scale benchmark.
    Each row is timed three times and the fastest repeat reported. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> Obs.Json.t
