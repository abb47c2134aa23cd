(** The [cclint] orchestrator: wires the placement sanitizer
    ({!Shadow}), the hint-quality lint ({!Hintlint}) and the
    field-hotness advisor ({!Fields}) into one machine-attached
    analysis.

    Typical use (the harness lint runner follows this shape):

    {[
      let lint = Lint.create machine in
      Lint.set_ccmalloc lint cc;
      let alloc = Lint.wrap_allocator lint ctx.alloc in
      Lint.attach lint;
      (* ... run the benchmark against [alloc] ... *)
      Lint.detach lint;
      let diags = Lint.finalize lint
    ]}

    While attached, every timed access on the machine is classified by
    the shadow heap and fed to the downstream passes; every
    [Ccmorph.morph] on the same machine is observed automatically. *)

type t

val create : ?window:int -> Memsim.Machine.t -> t
(** [window] is forwarded to {!Hintlint.create}. *)

val set_ccmalloc : t -> Ccsl.Ccmalloc.t -> unit
(** Scope out-of-bounds checks to this allocator's pages, judge hint
    managedness against it, and check its counter identity at
    {!finalize}. *)

val wrap_allocator : t -> Alloc.Allocator.t -> Alloc.Allocator.t
(** An allocator that forwards to the wrapped one and reports every
    allocation and free to the analysis. *)

val attach : t -> unit
(** Subscribe to the machine's timed-access feed and to global
    {!Ccsl.Ccmorph} observations (filtered to this machine). *)

val detach : t -> unit

val note_morph :
  t ->
  ?struct_id:string ->
  params:Ccsl.Ccmorph.params ->
  desc:Ccsl.Ccmorph.desc ->
  Ccsl.Ccmorph.result ->
  unit
(** Feed a morph observation by hand — used by fixtures that fabricate
    layouts without calling [Ccmorph.morph]. *)

val accesses_seen : t -> int
(** Timed accesses observed while attached. *)

val finalize : t -> Diag.t list
(** All findings from all passes, sorted by {!Diag.order}.  Includes
    the {!Ccsl.Ccmalloc.counters} identity check when an allocator was
    registered.  Idempotent with respect to accumulated state (can be
    called after {!detach} at any time). *)
