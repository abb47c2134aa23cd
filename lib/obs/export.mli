(** Versioned JSON export schema for experiment results.

    Every experiment result leaves the harness wrapped in an {e envelope}:

    {v
    { "schema_version": 1, "generator": "ccsl",
      "experiment": "<name>", "scale": "quick"|"paper",
      "seed": <int, optional>, "data": { ... } }
    v}

    The [data] payload is experiment-specific but built from the shared
    converters below, so field names for cost snapshots, cache/TLB stats
    and machine configs are identical everywhere.  [schema_version] is
    bumped on any breaking field change; additions are non-breaking. *)

val schema_version : int

val envelope :
  experiment:string ->
  ?scale:string ->
  ?seed:int ->
  Json.t ->
  Json.t

(** {1 Shared converters} *)

val cost_snapshot : Memsim.Cost.snapshot -> Json.t
val tlb_stats : Memsim.Tlb.stats -> Json.t
val hierarchy_stats : Memsim.Hierarchy.stats -> Json.t
val config : Memsim.Config.t -> Json.t
