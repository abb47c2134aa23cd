(** Process-parallel map: the one way independent benchmark arms run.
    Each job runs in a forked child, at most
    [Domain.recommended_domain_count ()] children alive at once, and each
    typed result is marshalled back over a pipe and returned in list
    order.

    Each child inherits a snapshot of the parent's state at fork time
    and runs in isolation, so a job that seeds its own RNGs (every
    benchmark runner here does — params carry explicit seeds) produces
    exactly the value it would produce in this process; the assembled
    output is byte-identical either way.  Results must be plain data (no
    functions) and jobs must not print to stdout/stderr. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] is [List.map f xs], computed in forked children.  It
    runs in this process instead on a single core, when [xs] has at
    most one element, when the platform has no [Unix.fork], or when it
    is itself called from inside a forked job (a job never forks
    again).  On either path, a job that raises (or, forked, returns a
    result that cannot be marshalled, or dies) turns into
    [Failure "parallel job i: ..."], [i] being the lowest failing
    element's index. *)
