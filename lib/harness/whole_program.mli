(** Whole-program comparison of the static placement arms, each run
    under the placement sanitizer.

    Three arms per Olden benchmark, each measured over the whole run
    (construction and every ccmorph call included, so reorganization is
    paid for in the same region it is expected to pay back in):

    - [base]: system malloc, no placement;
    - [static]: the Figure 7 ccmorph clustering+coloring arm (system
      malloc, then ccmorph on the kernel's fixed schedule);
    - [static-ccmalloc]: ccmalloc new-block plus ccmorph with
      {!Ccsl.Ccmorph.default_params} on the same schedule — the pairing
      of the paper's two tools that the paper recommends.

    Every arm runs with an {!Analyze.Shadow} attached, so its report
    carries the arm's diagnostics: [static] exercises the morph rules
    (straddle, hot range, overlap), [static-ccmalloc] those and the
    allocator rules (out-of-bounds in ccmalloc pages, counter identity,
    unmanaged hints).  The sanitizer only watches: an arm computes
    exactly what it computes without it. *)

type arm = {
  arm_label : string;  (** "base", "static" or "static-ccmalloc" *)
  arm_result : Olden.Common.result;
  arm_diags : Analyze.Diag.t list;  (** sorted by {!Analyze.Diag.order} *)
}

type report = {
  bench : string;
  arms : arm list;
  summary : Analyze.Diag.summary;  (** over every arm's diagnostics *)
}

val arm_ctxs : (string * (unit -> Olden.Common.ctx)) list
(** The arms' labels and fresh contexts, in report order. *)

val run_kernel : Experiments.kernel -> report
(** [run_kernel k] runs every arm of [k], sanitized, one
    {!Parallel.map} job per arm, marshalled back typed.  Every arm seeds
    its own RNGs from the kernel's params, so the report does not depend
    on where the arms ran. *)

val run : ?seed:int -> string -> report option
(** {!run_kernel} on one of {!Experiments.olden_names} (treeadd with a
    14-level tree traversed 8 times); [None] for an unknown name. *)

val exit_code : report -> int
(** {!Analyze.Diag.exit_code} over every arm: [1] on any error. *)

val pp : Format.formatter -> report -> unit

val to_json : report -> Obs.Json.t
(** The ["data"] payload: per-arm results, cycles normalized to the
    base arm and diagnostics, then the summary. *)
