(** The [cclint] benchmark runner behind [ccsl-cli lint].

    Each benchmark is linted in two phases, chosen so every rule sees
    the configuration it is about:

    - under [Ccmalloc_new_block] (Figure 7's "NA"), exercising the
      placement sanitizer's out-of-bounds and counter-identity rules and
      the unmanaged-hint count;
    - under [Ccmorph_cluster_color] ("Cl+Col"), exercising the morph
      sanitizer (straddle / hot-range / overlap).

    The merged, sorted diagnostics decide the process exit code via
    {!Analyze.Diag.exit_code}. *)

type phase = {
  ph_placement : Olden.Common.placement;
  ph_result : Olden.Common.result;
  ph_accesses : int;  (** timed accesses observed by the lint *)
  ph_diags : Analyze.Diag.t list;
}

type report = {
  bench : string;
  scale : Experiments.scale;
  phases : phase list;
  diags : Analyze.Diag.t list;  (** merged across phases, sorted *)
  summary : Analyze.Diag.summary;
}

val run_phase : Experiments.kernel -> Olden.Common.placement -> phase
(** Run one kernel whole-program under one placement with a
    {!Analyze.Lint} attached; exposed so tests can lint tiny custom
    workloads. *)

val run : ?scale:Experiments.scale -> ?seed:int -> string -> report option
(** [run name] lints the {!Experiments.olden_kernels} kernel [name] at
    [scale] (default [Quick]), one {!Parallel.map} job per phase;
    [None] for an unknown name. *)

val pp : Format.formatter -> report -> unit

val to_json : report -> Obs.Json.t
(** The ["data"] payload: per-phase results and diagnostics, the merged
    diagnostics and their summary. *)
