(** Process-parallel map: one forked child per element, each typed
    result marshalled back over a pipe and returned in list order.

    Each child inherits a snapshot of the parent's state at fork time
    and runs in isolation, so a job that seeds its own RNGs (every
    benchmark runner here does — params carry explicit seeds) produces
    exactly the value it would produce serially; the assembled output
    is byte-identical to a serial run.  Results must be plain data (no
    functions) and jobs must not print to stdout/stderr. *)

val map : ?parallel:bool -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~parallel f xs] is [List.map f xs].  With [parallel:true] (the
    default) each [f x] runs in a forked child; single-element lists,
    [parallel:false] and platforms without [Unix.fork] run in this
    process.  In a child, an exception (or a result that cannot be
    marshalled, or the child dying) turns into
    [Failure "parallel job i: ..."] in the parent, [i] being the
    element's index. *)
