(** A minimal JSON tree and emitter.

    The opam switch this project pins deliberately carries no JSON
    dependency, so the telemetry layer brings its own printer.  It
    supports exactly what the experiment-export schema needs: the seven
    JSON value forms and deterministic emission (object fields keep
    insertion order).  Nothing in OCaml reads an export back; CI reads
    every committed export with Python's [json] module.

    Floats are emitted so that the output is always valid JSON:
    non-finite values become [null] (the schema never produces them on
    purpose), and finite values always contain a ['.'] or exponent. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields are emitted in list order *)

(** {1 Emission} *)

val to_string : ?minify:bool -> t -> string
(** [minify] defaults to [false]: two-space indentation. *)

val write_file : string -> t -> unit
(** Write the indented form plus a trailing newline. *)

(** {1 Access helpers (tests walk in-process values with these)} *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_int : t -> int option
(** [Int n] gives [Some n]; everything else [None]. *)

val to_str : t -> string option
