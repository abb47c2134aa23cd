(** The diagnostic type of every placement-sanitizer rule.

    A diagnostic is one finding of one rule: an identifier
    (["pass/rule-name"]), a severity, the subject it is about (an
    address, an allocation site, a morphed structure, or the whole run),
    a human-readable message, and the evidence numbers the message was
    derived from — so JSON consumers can re-rank or re-threshold findings
    without re-running the analysis.

    Severities follow sanitizer convention: [Error] marks a violated
    layout invariant (the run's placement cannot be trusted), [Warn] a
    hint-quality problem that costs performance but never correctness
    (the paper's Section 3.2 contract for ccmalloc misuse). *)

type severity = Error | Warn

type subject =
  | Address of Memsim.Addr.t  (** a specific heap address *)
  | Site of string  (** an allocation site label *)
  | Structure of string  (** a morphed structure identifier *)
  | Global  (** the run as a whole *)

type t = {
  rule : string;  (** ["pass/rule-name"], stable across releases *)
  severity : severity;
  subject : subject;
  message : string;
  evidence : (string * float) list;  (** named numbers behind the message *)
}

val v :
  rule:string ->
  severity ->
  ?subject:subject ->
  ?evidence:(string * float) list ->
  string ->
  t
(** [v ~rule sev msg]; [subject] defaults to {!Global}. *)

val order : t -> t -> int
(** Sort key: severity (errors first), then rule, then subject. *)

type summary = { n_errors : int; n_warns : int }

val summarize : t list -> summary

val exit_code : t list -> int
(** [1] when any diagnostic is an {!Error}, [0] otherwise: the exit
    status of [ccsl-cli run]. *)

val to_json : t -> Obs.Json.t
val summary_to_json : summary -> Obs.Json.t
val pp : Format.formatter -> t -> unit
