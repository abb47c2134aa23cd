module A = Memsim.Addr
module Machine = Memsim.Machine
module Cache_config = Memsim.Cache_config

type t = {
  l2 : Cache_config.t;
  page_bytes : int;
  hot_first_set : int;
  hot_sets : int;
}

let v ?(color_frac = 0.5) ?(hot_first_set = 0) ~l2 ~page_bytes () =
  if color_frac <= 0. || color_frac >= 1. then
    invalid_arg "Coloring.v: color_frac must be in (0, 1)";
  let sets = l2.Cache_config.sets in
  let b = l2.Cache_config.block_bytes in
  let stripe = sets * b in
  if stripe < 2 * page_bytes then
    invalid_arg "Coloring.v: cache stripe smaller than two pages";
  let sets_per_page = page_bytes / b in
  if hot_first_set < 0 || hot_first_set >= sets then
    invalid_arg "Coloring.v: hot_first_set out of range";
  if hot_first_set mod sets_per_page <> 0 then
    invalid_arg "Coloring.v: hot_first_set must be a page multiple";
  (* Round p down to a whole number of pages, keeping both regions
     non-empty and the hot region inside the cache. *)
  let p_raw = int_of_float (float_of_int sets *. color_frac) in
  let p = max sets_per_page (p_raw / sets_per_page * sets_per_page) in
  let p = min p (sets - sets_per_page) in
  let p = min p (sets - hot_first_set) in
  { l2; page_bytes; hot_first_set; hot_sets = p }

let hot_capacity_blocks t = t.hot_sets * t.l2.Cache_config.assoc
let stripe_bytes t = t.l2.Cache_config.sets * t.l2.Cache_config.block_bytes
let hot_stripe_bytes t = t.hot_sets * t.l2.Cache_config.block_bytes

let region_of_addr t a =
  let set = Cache_config.set_of_addr t.l2 a in
  if set >= t.hot_first_set && set < t.hot_first_set + t.hot_sets then `Hot
  else `Cold

(* The cold region of a stripe is the complement of the hot span: up to
   two byte ranges, [0, hot_lo) and [hot_hi, stripe). *)
let cold_spans t =
  let b = t.l2.Cache_config.block_bytes in
  let hot_lo = t.hot_first_set * b in
  let hot_hi = (t.hot_first_set + t.hot_sets) * b in
  List.filter
    (fun (lo, hi) -> hi > lo)
    [ (0, hot_lo); (hot_hi, stripe_bytes t) ]

type arenas = {
  coloring : t;
  m : Machine.t;
  mutable hot_next : int;  (* next hot block address, 0 = need stripe *)
  mutable hot_left : int;  (* hot blocks left in current stripe *)
  mutable cold_next : int;
  mutable cold_left : int;  (* cold blocks left in current span *)
  mutable cold_spans_left : (int * int) list;  (* spans of current stripe *)
  mutable cold_stripe : int;  (* base of the stripe being carved for cold *)
}

let arenas m coloring =
  {
    coloring;
    m;
    hot_next = 0;
    hot_left = 0;
    cold_next = 0;
    cold_left = 0;
    cold_spans_left = [];
    cold_stripe = 0;
  }

let new_stripe ar =
  let stripe = stripe_bytes ar.coloring in
  Machine.reserve ar.m ~bytes:stripe ~align:stripe

let next_hot_block ar =
  let b = ar.coloring.l2.Cache_config.block_bytes in
  if ar.hot_left = 0 then begin
    let base = new_stripe ar in
    ar.hot_next <- base + (ar.coloring.hot_first_set * b);
    ar.hot_left <- ar.coloring.hot_sets
  end;
  let addr = ar.hot_next in
  ar.hot_next <- addr + b;
  ar.hot_left <- ar.hot_left - 1;
  addr

let rec next_cold_block ar =
  let b = ar.coloring.l2.Cache_config.block_bytes in
  if ar.cold_left = 0 then begin
    match ar.cold_spans_left with
    | (lo, hi) :: rest ->
        ar.cold_next <- ar.cold_stripe + lo;
        ar.cold_left <- (hi - lo) / b;
        ar.cold_spans_left <- rest;
        next_cold_block ar
    | [] ->
        ar.cold_stripe <- new_stripe ar;
        ar.cold_spans_left <- cold_spans ar.coloring;
        next_cold_block ar
  end
  else begin
    let addr = ar.cold_next in
    ar.cold_next <- addr + b;
    ar.cold_left <- ar.cold_left - 1;
    addr
  end
