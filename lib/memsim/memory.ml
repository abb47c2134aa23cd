type t = {
  page_bytes : int;
  page_shift : int;
  off_mask : int;  (* page_bytes - 1 *)
  mutable pages : Bytes.t array;
  mutable materialized : int;
}

(* The one page every untouched index holds: zero-length, so the
   in-page test [o + 4 <= Bytes.length page] fails on it. *)
let untouched = Bytes.empty

let create ~page_bytes =
  if not (Addr.is_pow2 page_bytes) then
    invalid_arg "Memory.create: page_bytes must be a power of two";
  {
    page_bytes;
    page_shift = Addr.log2 page_bytes;
    off_mask = page_bytes - 1;
    pages = Array.make 64 untouched;
    materialized = 0;
  }

let[@inline never] out_of_range a =
  invalid_arg (Printf.sprintf "Memory: address %d is outside [0, 2^32)" a)

(* The page holding [a], materialized (and the table grown) on first
   touch.  Simulated pointers are 32-bit: anything else is a bug in the
   caller, not a request for more memory. *)
let page t a =
  if a < 0 || a >= 0x1_0000_0000 then out_of_range a;
  let i = a lsr t.page_shift in
  let n = Array.length t.pages in
  if i >= n then begin
    let bigger = Array.make (max (i + 1) (n * 2)) untouched in
    Array.blit t.pages 0 bigger 0 n;
    t.pages <- bigger
  end;
  let p = Array.unsafe_get t.pages i in
  if p != untouched then p
  else begin
    let p = Bytes.make t.page_bytes '\000' in
    t.pages.(i) <- p;
    t.materialized <- t.materialized + 1;
    p
  end

(* Unaligned, bounds-unchecked 32-bit primitives (the public
   [Bytes.get_int32_le] adds a bounds check we have already done).  Both
   unbox locally when the int32 flows straight into [Int32.to_int] /
   out of [Int32.of_int], so the word accessors stay allocation-free. *)
external swap32 : int32 -> int32 = "%bswap_int32"
external unsafe_get_32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set_32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] get32_le p o =
  let v = unsafe_get_32 p o in
  if Sys.big_endian then Int32.to_int (swap32 v) land 0xffffffff
  else Int32.to_int v land 0xffffffff

let[@inline] set32_le p o v =
  if Sys.big_endian then unsafe_set_32 p o (swap32 (Int32.of_int v))
  else unsafe_set_32 p o (Int32.of_int v)

let load8 t a = Char.code (Bytes.get (page t a) (a land t.off_mask))
let store8 t a v =
  Bytes.set (page t a) (a land t.off_mask) (Char.chr (v land 0xff))

(* Wider accessors read within one page when the value fits, and
   assemble it from narrower pieces when it straddles a page boundary. *)

let[@inline never] load32_slow t a =
  let o = a land t.off_mask in
  if o + 4 <= t.page_bytes then get32_le (page t a) o
  else
    load8 t a
    lor (load8 t (a + 1) lsl 8)
    lor (load8 t (a + 2) lsl 16)
    lor (load8 t (a + 3) lsl 24)

let[@inline never] store32_slow t a v =
  let o = a land t.off_mask in
  if o + 4 <= t.page_bytes then set32_le (page t a) o v
  else
    for i = 0 to 3 do
      store8 t (a + i) (v lsr (8 * i))
    done

(* The word accessors every simulated load and store ends in, inlined
   into their callers: a word inside a materialized page is read or
   written in place.  An untouched page (the zero-length entry), a word
   straddling a page boundary and an index past the table's end take the
   slow path, and so does every address outside [0, 2^32), since no
   page there is ever materialized.  [load32s], for the few signed
   fields, is one call with [load32] inlined in it. *)
let[@inline] mapped t a =
  let i = a lsr t.page_shift in
  if i < Array.length t.pages then Array.unsafe_get t.pages i
  else untouched

let[@inline] load32 t a =
  let p = mapped t a and o = a land t.off_mask in
  if o + 4 <= Bytes.length p then get32_le p o else load32_slow t a

let[@inline] store32 t a v =
  let p = mapped t a and o = a land t.off_mask in
  if o + 4 <= Bytes.length p then set32_le p o v else store32_slow t a v

let load32s t a =
  let v = load32 t a in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let load64 t a =
  let o = a land t.off_mask in
  if o + 8 <= t.page_bytes then Bytes.get_int64_le (page t a) o
  else
    let lo = Int64.of_int (load32 t a) in
    let hi = Int64.of_int (load32 t (a + 4)) in
    Int64.logor lo (Int64.shift_left hi 32)

let store64 t a v =
  let o = a land t.off_mask in
  if o + 8 <= t.page_bytes then Bytes.set_int64_le (page t a) o v
  else begin
    store32 t a (Int64.to_int (Int64.logand v 0xffffffffL));
    store32 t (a + 4) (Int64.to_int (Int64.shift_right_logical v 32))
  end

let loadf t a = Int64.float_of_bits (load64 t a)
let storef t a v = store64 t a (Int64.bits_of_float v)

(* Bulk operations, one [Bytes] call per page the range touches: a
   range that straddles a page boundary is split there. *)
type bulk = Load | Store | Zero

let bulk op t a buf ~pos ~len =
  let a = ref a and pos = ref pos and len = ref len in
  while !len > 0 do
    let o = !a land t.off_mask in
    let piece = min !len (t.page_bytes - o) in
    let p = page t !a in
    (match op with
    | Load -> Bytes.blit p o buf !pos piece
    | Store -> Bytes.blit buf !pos p o piece
    | Zero -> Bytes.fill p o piece '\000');
    a := !a + piece;
    pos := !pos + piece;
    len := !len - piece
  done

let load_bytes t a buf ~pos ~len = bulk Load t a buf ~pos ~len
let store_bytes t a buf ~pos ~len = bulk Store t a buf ~pos ~len
let fill_zero t a ~bytes = bulk Zero t a Bytes.empty ~pos:0 ~len:bytes
let pages_materialized t = t.materialized
