(** A hash table from non-negative [int] keys to [int] values, stored
    in two flat [int] arrays (open addressing, linear probing).

    The locality profilers ([Obs.Profile]), the placement sanitizer's
    shadow heap ([Analyze.Shadow]), [Ccmorph]'s count of the pages a
    morph used, and mst's edge set use it.  Unlike
    [(int, int) Hashtbl.t] it allocates nothing on the host heap except
    when it quadruples its capacity: lookups return
    unboxed values, and insertions and removals write in place.  Memory
    grows with the number of entries (load factor at most 3/4), not with
    the range of the keys. *)

type t

val create : int -> t
(** [create n] is an empty table of [n] slots, which holds [3n / 4]
    entries before it first grows; the capacity is rounded up to a
    power of two, at least 8. *)

val length : t -> int

val find_or : t -> int -> default:int -> int
(** The value bound to a key, or [default] when there is none (always
    [default] for a negative key). *)

val mem : t -> int -> bool

val exchange : t -> int -> int -> default:int -> int
(** [exchange t k v ~default] binds [k] to [v] and returns the value [k]
    was bound to before, or [default] when it was unbound: [find_or]
    and [replace] in one probe run.
    @raise Invalid_argument on a negative key. *)

val replace : t -> int -> int -> unit
(** Bind a key, replacing any previous binding.
    @raise Invalid_argument on a negative key. *)

val remove : t -> int -> unit
(** Drop a key's binding, if any. *)

val map_inplace : (int -> int -> int) -> t -> unit
(** Rebind every key [k] to [f k v], where [v] is its value, in place:
    no entry moves and the table allocates nothing.  [f] must not
    modify the table. *)

val iter : (int -> int -> unit) -> t -> unit
(** In slot order, which depends on the keys and the capacity but not
    on insertion order alone; callers must not depend on it. *)

