(** Olden [perimeter]: compute the perimeter of the black regions in a
    binary image represented as a quadtree (Table 2: 4K x 4K image).

    The image is a disc, as in the Olden source; the tree is built in
    preorder at start-up and never modified, and the perimeter pass uses
    Samet's neighbor-finding algorithm, which climbs parent pointers and
    reflects child types — lots of dependent pointer chasing with no
    regular stride, which is why hardware prefetching does nothing here
    and placement matters. *)

type params = {
  size : int;  (** image side, power of two; paper: 4096 *)
  seed : int;  (** unused by the disc image, reserved for variants *)
}

val default_params : params
(** 1024 x 1024 — large enough that the tree exceeds the L2 cache, small
    enough for CI. *)

val paper_params : params

val run :
  ?params:params -> ?measure_whole:bool -> ?ctx:Common.ctx ->
  Common.placement -> Common.result
(** Checksum is the perimeter (in unit-pixel edges).  By default only
    the perimeter computation is measured (build and one-time morph are
    fast-forwarded start-up). *)

val oracle_perimeter : params -> int
(** Perimeter computed directly from the pixel grid (O(size^2), untimed);
    used as a test oracle on small sizes. *)

val is_black_pixel : params -> x:int -> y:int -> bool
(** The image definition (exposed for tests). *)
