(** Whole-program comparison of the static placement arms.

    Three arms per Olden benchmark, each measured over the whole run
    (construction and every ccmorph call included, so reorganization is
    paid for in the same region it is expected to pay back in):

    - [base]: system malloc, no placement;
    - [static]: the Figure 7 ccmorph clustering+coloring arm (system
      malloc, then ccmorph on the kernel's fixed schedule);
    - [static-ccmalloc]: ccmalloc new-block plus ccmorph with
      {!Ccsl.Ccmorph.default_params} on the same schedule — the pairing
      of the paper's two tools that the paper recommends. *)

type arm = {
  arm_label : string;  (** "base", "static" or "static-ccmalloc" *)
  arm_result : Olden.Common.result;
}

type report = { bench : string; arms : arm list }

val run : ?seed:int -> string -> report option
(** Run the arms for one of {!Experiments.olden_names} (treeadd with a
    14-level tree traversed 8 times); [None] for an unknown name.

    Each arm is one {!Parallel.map} job, marshalled back typed.  Every
    arm seeds its own RNGs from the benchmark params, so the report
    (and its JSON export) does not depend on where the arms ran. *)

val pp : Format.formatter -> report -> unit

val to_json : report -> Obs.Json.t
(** The ["data"] payload: per-arm results and cycles normalized to the
    base arm. *)
