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

val validate_envelope : Json.t -> (unit, string) result
(** Structural check used by tests and the CI smoke run: required fields
    present and of the right type, version supported. *)

val write_file : string -> Json.t -> unit
(** Alias of {!Json.write_file}. *)

(** {1 Shared converters} *)

val cost_snapshot : Memsim.Cost.snapshot -> Json.t
val cache_stats : Memsim.Cache.stats -> Json.t
val tlb_stats : Memsim.Tlb.stats -> Json.t
val hierarchy_stats : Memsim.Hierarchy.stats -> Json.t
val cache_config : Memsim.Cache_config.t -> Json.t
val config : Memsim.Config.t -> Json.t

val machine : Memsim.Machine.t -> Json.t
(** Config name, cycle count, reserved bytes, and full hierarchy stats. *)
