(** The adaptive-placement ablation: close the paper's loop by letting
    the profile drive placement {e during} the run.

    Three arms per Olden benchmark, all measured whole-program (the
    adaptive arm's entire point is paying reorganization only when the
    policy approves, so morph costs land inside the measured region for
    every arm alike):

    - [base]: system malloc, no placement;
    - [static]: the Figure 7 ccmorph clustering+coloring arm, morphing
      on the kernel's fixed schedule;
    - [adaptive]: [ccmalloc new-block] wrapped by {!Adapt.Advisor}
      (online hint synthesis), with reorganization gated by
      {!Adapt.Policy} through {!Olden.Common.morph_gate} and morph
      parameters chosen by {!Adapt.Autotune} (model-ranked, validated by
      reduced-scale simulated runs). *)

type arm = {
  arm_label : string;  (** "base", "static" or "adaptive" *)
  arm_result : Olden.Common.result;
  arm_advisor : Adapt.Advisor.stats option;  (** adaptive arm only *)
  arm_policy : Adapt.Policy.stats option;  (** adaptive arm only *)
}

type report = {
  bench : string;
  arms : arm list;
  recommendation : Obs.Json.t option;
      (** {!Adapt.Autotune.to_json} of the autotuned parameters; kept as
          JSON because it crosses the parallel-runner pipe verbatim *)
}

val arm_payload : arm -> recommendation:Obs.Json.t option -> Obs.Json.t
(** The self-describing JSON document one arm job returns (over the
    {!Parallel} pipe or in-process). *)

val arm_of_payload : Obs.Json.t -> arm * Obs.Json.t option
(** Inverse of {!arm_payload}; raises [Failure] on a corrupt payload. *)

val run :
  ?seed:int -> ?adapt:bool -> ?parallel:bool -> string -> report option
(** Run the arms for one of {!Experiments.olden_names} (treeadd with a
    14-level tree traversed 8 times); [None] for an unknown name.
    [adapt] (default true) includes the adaptive arm and the autotuned
    recommendation; [false] runs only the base/static pair.

    With [parallel:true] (default false) each arm runs in a forked
    child via {!Parallel} — the adaptive arm's autotune validation runs
    overlap the base and static arms — and results come back as
    JSON-over-pipe.  Every arm seeds its own RNGs from the benchmark
    params, so the report (and its JSON export) is byte-identical to a
    serial run; both modes decode through the same {!arm_of_payload}
    path. *)

val pp : Format.formatter -> report -> unit

val to_json : report -> Obs.Json.t
(** The ["data"] payload: per-arm results, normalized cycles, advisor
    and policy counters. *)

val recommendation_json : report -> Obs.Json.t option
(** The envelope's ["recommended_params"] section, when autotuning
    ran. *)
