(** Ablation studies for the design choices DESIGN.md calls out.

    These go beyond the paper's own evaluation: each experiment isolates
    one knob of the cache-conscious machinery and quantifies its
    contribution, including the "interactions among different
    structures" question the paper leaves as future work.

    Like {!Experiments}, every study prints a human table and returns
    its numbers as {!Obs.Json.t}.  [seed] reseeds the studies' random
    streams; omitting it reproduces the repository's historical
    constants exactly.

    Run them all with [ccsl-cli ablations]. *)

val all : ?seed:int -> Format.formatter -> Obs.Json.t
(** Every study, each one {!Parallel.map} job, printed in a fixed order
    once all are done; the returned object maps each study's name to its
    payload.  Each study's purpose is stated above its function in
    [ablations.ml]. *)
