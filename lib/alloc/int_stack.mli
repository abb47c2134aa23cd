(** A growable stack of [int]s in one flat array: pushes and pops
    allocate nothing on the host heap except when the array doubles.
    The allocators' LIFO free lists, and reusable address buffers. *)

type t

val create : int -> t
(** An empty stack with room for [n] items before it first grows. *)

val length : t -> int

val clear : t -> unit
(** Empty the stack, keeping its capacity. *)

val get : t -> int -> int
(** [get s i] is the [i]-th item from the bottom.
    @raise Invalid_argument outside [0 .. length s - 1]. *)

val push : t -> int -> unit

val pop : t -> int
(** Remove and return the top item.
    @raise Invalid_argument on an empty stack. *)
