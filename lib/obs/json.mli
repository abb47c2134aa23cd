(** A minimal JSON tree, emitter and parser.

    The opam switch this project pins deliberately carries no JSON
    dependency, so the telemetry layer brings its own ~200-line
    implementation.  It supports exactly what the experiment-export
    schema needs: the seven JSON value forms, deterministic emission
    (object fields keep insertion order), and a strict parser used by
    the round-trip tests and the CI smoke check.

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

val pp : Format.formatter -> t -> unit
(** Indented form, same as [to_string ~minify:false]. *)

val write_file : string -> t -> unit
(** Write the indented form plus a trailing newline. *)

(** {1 Parsing} *)

val of_string : string -> (t, string) result
(** Strict parse of a complete JSON document; the error string carries a
    character offset.  Numbers without ['.'], ['e'] or ['E'] parse as
    [Int], all others as [Float]. *)

(** {1 Access helpers (tests and the CLI smoke checks)} *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val index : int -> t -> t option

val to_int : t -> int option
(** [Int n] gives [Some n]; everything else [None]. *)

val to_float : t -> float option
(** [Float] or [Int] (widened). *)

val to_str : t -> string option
val to_list : t -> t list option
val equal : t -> t -> bool
