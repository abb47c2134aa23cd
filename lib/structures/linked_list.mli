(** Doubly-linked lists over the simulated heap, with the exact node
    layout of the paper's Figure 4 ([struct List] in Olden [health]):

    {v
      offset 0 : forward (next pointer)
      offset 4 : back    (previous pointer)
      offset 8 : data    (payload word; wider payloads extend the element)
    v}

    [append] follows the paper's [addList] discipline: walk to the tail,
    then allocate the new element with the tail as the [ccmalloc] hint. *)

type t = {
  m : Memsim.Machine.t;
  alloc : Alloc.Allocator.t;
  elem_bytes : int;
  mutable head : Memsim.Addr.t;
  mutable length : int;
}

val off_forward : int
val off_back : int
val off_data : int

val create :
  ?elem_bytes:int -> Memsim.Machine.t -> alloc:Alloc.Allocator.t -> t
(** An empty list.  Default [elem_bytes] is 12. *)

val append : t -> int -> Memsim.Addr.t
(** Timed: walk to the tail (as [addList] does) and link a new element
    holding the payload, allocated with the predecessor as hint.
    Returns the new element's address. *)

val push_front : t -> int -> Memsim.Addr.t
(** Timed O(1) insertion at the head (hint = old head). *)

val remove : t -> Memsim.Addr.t -> unit
(** Timed unlink of an element (does not free it). *)

val iter : t -> (Memsim.Addr.t -> int -> unit) -> unit
(** Timed forward traversal: calls [f addr payload] per element. *)

val nth : t -> int -> Memsim.Addr.t
(** Timed; address of the i-th element. @raise Invalid_argument if out of
    range. *)

val to_payload_list : t -> int list
(** Untimed (oracle). *)

val set_head : t -> Memsim.Addr.t -> length:int -> unit
(** Re-point the list after a [ccmorph] (which returns a new head). *)

val desc : elem_bytes:int -> Ccsl.Ccmorph.desc
(** Morph description: kid = forward, parent = back. *)

val check : t -> unit
(** Untimed invariant check: forward/back symmetry and length agreement.
    @raise Failure when broken. *)
