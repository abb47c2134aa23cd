(** Drivers that regenerate every table and figure of the paper's
    evaluation section, print them in a paper-like layout annotated with
    the numbers the paper reports, and return the same numbers as
    structured {!Obs.Json.t} (the payload [ccsl-cli --json] wraps in a
    versioned envelope).

    Two scales are provided: [Quick] finishes the whole set in about a
    minute and preserves every qualitative shape; [Paper] uses the
    paper's input sizes (Table 2, Section 4.2) and takes considerably
    longer.  EXPERIMENTS.md records reference output for both.

    [seed] reseeds the workload generators (key streams, graph and
    scene generation); omitting it reproduces the repository's
    long-standing default streams bit for bit. *)

type scale = Quick | Paper

val scale_name : scale -> string

val fig5 : ?scale:scale -> ?seed:int -> Format.formatter -> Obs.Json.t
(** Tree microbenchmark: average search cycles vs. number of repeated
    searches for the four tree organizations (Section 4.2, Figure 5). *)

val fig6 : ?scale:scale -> ?seed:int -> Format.formatter -> Obs.Json.t
(** Macrobenchmarks: RADIANCE (base vs. ccmorph octree) and VIS (base vs.
    ccmalloc new-block) normalized execution times (Section 4.3,
    Figure 6). *)

val table1 : Format.formatter -> Obs.Json.t
(** The RSIM machine parameters used for Figure 7 (Table 1). *)

val table2 : ?scale:scale -> ?seed:int -> Format.formatter -> Obs.Json.t
(** Olden benchmark characteristics: structures, inputs, memory
    allocated (Table 2). *)

val fig7 : ?scale:scale -> ?seed:int -> Format.formatter -> Obs.Json.t
(** Olden benchmarks under the eight placement configurations with
    busy/load/store breakdowns and the §4.4 memory-overhead columns
    (Figure 7). *)

val control : ?scale:scale -> ?seed:int -> Format.formatter -> Obs.Json.t
(** The §4.4 control experiment: whole-program runs of ccmalloc with all
    hints nulled, versus the system malloc base. *)

val fig10 : ?scale:scale -> ?seed:int -> Format.formatter -> Obs.Json.t
(** Analytic-model validation: predicted vs. measured C-tree speedup
    across tree sizes (Section 5.4, Figure 10). *)

val olden_params :
  ?seed:int ->
  scale ->
  Olden.Treeadd.params * Olden.Health.params * Olden.Mst.params
  * Olden.Perimeter.params
(** The Olden input sizes behind {!olden_kernels} at a given scale. *)

(** One Olden kernel with its inputs bound: the single way every harness
    runs treeadd, health, mst or perimeter. *)
type kernel = {
  k_name : string;
  k_run :
    ?measure_whole:bool ->
    ?ctx:Olden.Common.ctx ->
    Olden.Common.placement ->
    Olden.Common.result;
      (** [Olden.*.run] with the kernel's params; without [ctx] it runs
          on a fresh default machine for the placement *)
}

val treeadd : Olden.Treeadd.params -> kernel
(** Treeadd with caller-chosen inputs (a deeper tree, more passes). *)

val olden_kernels : ?seed:int -> scale -> kernel list
(** The four kernels in Table 2 order, built from {!olden_params}. *)

val olden_names : string list
(** ["treeadd"; "health"; "mst"; "perimeter"]: the names of
    {!olden_kernels}. *)

val olden_kernel : ?seed:int -> scale -> string -> kernel option
(** The kernel of {!olden_kernels} with this name; [None] for an unknown
    name. *)

val names : string list
(** The experiment names {!run_named} understands, in paper order. *)

val run_named :
  ?scale:scale -> ?seed:int -> string -> Format.formatter -> Obs.Json.t option
(** Dispatch by name; [None] for an unknown name. *)

val all : ?scale:scale -> ?seed:int -> Format.formatter -> Obs.Json.t
(** Every experiment in paper order; the returned object maps each
    experiment name to its payload. *)
