(** Hint-quality lint (paper Section 3.2).

    [ccmalloc]'s contract is that the hint argument names an object the
    new one will be accessed {e contemporaneously} with.  This pass
    measures how well each allocation site honors that contract, by
    correlating the hints a site passes with the co-access actually
    observed in a sliding window over the timed trace.  Rules:

    - [hint/null-on-hot-path] (Warn): a site that allocates under a
      cache-conscious allocator, never passes a hint, and whose objects
      absorb a significant share of the traced accesses — exactly the
      objects whose placement was left to chance.  The suggestion names
      the site whose objects most often appear in the access window
      around this site's objects (the measured best co-access partner).
    - [hint/unmanaged] (Warn): a site whose hints point outside the
      allocator's managed pages (e.g. at another allocator's arena), so
      every such hint degrades to an unhinted allocation.
    - [hint/low-affinity] (Warn): a site that does pass hints, but whose
      objects are almost never accessed near the hinted block — the hint
      is wasted effort and may pollute otherwise-coherent blocks.  The
      suggestion again comes from the co-access matrix. *)

type t

val create : ?window:int -> unit -> t
(** [window] (default 32) is the sliding co-access window length, in
    traced accesses attributed to known heap objects. *)

val note_alloc :
  t -> ?site:string -> hinted:bool -> hint_managed:bool -> unit -> unit
(** One allocation at [site]; [hinted] when a non-null hint was passed,
    [hint_managed] whether that hint pointed into managed pages
    (meaningless when [hinted] is false). *)

val on_access : t -> block:int -> site:string option -> hint_block:int -> unit
(** One traced access attributed to a heap object of [site], living in
    cache block [block], allocated with a hint in [hint_block] ([-1] for
    none).  Updates the co-access window, the per-site affinity
    statistics, and the site-to-site co-access matrix. *)

val push_unattributed : t -> block:int -> unit
(** A traced access that hit no known heap object still occupies the
    window (it is real trace distance between attributed accesses). *)

val diags : t -> total_accesses:int -> Diag.t list
(** Findings at end of run.  [total_accesses] scales the hot-path
    threshold: a site is "hot" when its objects absorb at least 10% of
    all attributed accesses. *)
