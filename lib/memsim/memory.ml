type t = {
  chunk_bytes : int;
  chunk_shift : int;
  off_mask : int;  (* chunk_bytes - 1 *)
  mutable chunks : Bytes.t option array;
  mutable materialized : int;
  (* last-chunk memo for the fast accessors: chunks are never replaced
     once materialized (the index array may grow, the [Bytes.t] values
     persist), so the memo can never go stale *)
  mutable last_idx : int;
  mutable last_chunk : Bytes.t;
}

let create ?(chunk_bytes = 65536) () =
  if not (Addr.is_pow2 chunk_bytes) then
    invalid_arg "Memory.create: chunk_bytes must be a power of two";
  {
    chunk_bytes;
    chunk_shift = Addr.log2 chunk_bytes;
    off_mask = chunk_bytes - 1;
    chunks = Array.make 64 None;
    materialized = 0;
    last_idx = -1;
    last_chunk = Bytes.empty;
  }

let chunk t a =
  let i = a lsr t.chunk_shift in
  if i >= Array.length t.chunks then begin
    let n = Array.length t.chunks in
    let n' = max (i + 1) (n * 2) in
    let bigger = Array.make n' None in
    Array.blit t.chunks 0 bigger 0 n;
    t.chunks <- bigger
  end;
  match t.chunks.(i) with
  | Some c -> c
  | None ->
      let c = Bytes.make t.chunk_bytes '\000' in
      t.chunks.(i) <- Some c;
      t.materialized <- t.materialized + 1;
      c

let off t a = a land (t.chunk_bytes - 1)

(* Unaligned, bounds-unchecked 32-bit primitives (the public
   [Bytes.get_int32_le] adds a bounds check we have already done).  Both
   unbox locally when the int32 flows straight into [Int32.to_int] /
   out of [Int32.of_int], so the fast accessors stay allocation-free. *)
external swap32 : int32 -> int32 = "%bswap_int32"
external unsafe_get_32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set_32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] get32_le c o =
  let v = unsafe_get_32 c o in
  if Sys.big_endian then Int32.to_int (swap32 v) land 0xffffffff
  else Int32.to_int v land 0xffffffff

let[@inline] set32_le c o v =
  if Sys.big_endian then unsafe_set_32 c o (swap32 (Int32.of_int v))
  else unsafe_set_32 c o (Int32.of_int v)

let[@inline] chunk_fast t a =
  let i = a lsr t.chunk_shift in
  if i = t.last_idx then t.last_chunk
  else begin
    let c = chunk t a in
    t.last_idx <- i;
    t.last_chunk <- c;
    c
  end

(* Multi-byte accessors assume natural alignment, which all allocators in
   this repository guarantee; the fast path never straddles a chunk. *)

let load8 t a = Char.code (Bytes.get (chunk t a) (off t a))
let store8 t a v = Bytes.set (chunk t a) (off t a) (Char.chr (v land 0xff))

(* The boxed [Int32] accessors allocate on every word access (the
   [int32] box survives the call boundary without flambda); the fast
   accessors compose bytes instead — same values, zero allocation.  The
   chunk is materialized and [o + 4 <= chunk_bytes] checked before the
   unsafe reads.  [load32_fast]/[store32_fast] skip the {!Fastpath}
   flag read for callers (i.e. {!Machine}) that already checked it. *)

(* Cold arms of the fast accessors, split out so the hot arms stay small
   enough for the non-flambda inliner to flatten into {!Machine}. *)

let[@inline never] load32_straddle t a =
  let b0 = load8 t a
  and b1 = load8 t (a + 1)
  and b2 = load8 t (a + 2)
  and b3 = load8 t (a + 3) in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let[@inline never] store32_straddle t a v =
  store8 t a v;
  store8 t (a + 1) (v lsr 8);
  store8 t (a + 2) (v lsr 16);
  store8 t (a + 3) (v lsr 24)

let[@inline] load32_fast t a =
  let o = a land t.off_mask in
  if o + 4 <= t.chunk_bytes then get32_le (chunk_fast t a) o
  else load32_straddle t a

let[@inline] store32_fast t a v =
  let o = a land t.off_mask in
  if o + 4 <= t.chunk_bytes then set32_le (chunk_fast t a) o v
  else store32_straddle t a v

let load32 t a =
  if !Fastpath.enabled then load32_fast t a
  else
    (* reference arm: the pre-fastpath implementation, verbatim *)
    let o = off t a in
    if o + 4 <= t.chunk_bytes then
      Int32.to_int (Bytes.get_int32_le (chunk t a) o) land 0xffffffff
    else
      let b0 = load8 t a
      and b1 = load8 t (a + 1)
      and b2 = load8 t (a + 2)
      and b3 = load8 t (a + 3) in
      b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let store32 t a v =
  if !Fastpath.enabled then store32_fast t a v
  else
    let o = off t a in
    if o + 4 <= t.chunk_bytes then Bytes.set_int32_le (chunk t a) o (Int32.of_int v)
    else begin
      store8 t a v;
      store8 t (a + 1) (v lsr 8);
      store8 t (a + 2) (v lsr 16);
      store8 t (a + 3) (v lsr 24)
    end

let load32s t a =
  let v = load32 t a in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let[@inline] load32s_fast t a =
  let v = load32_fast t a in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let load64 t a =
  let o = off t a in
  if o + 8 <= t.chunk_bytes then Bytes.get_int64_le (chunk t a) o
  else
    let lo = Int64.of_int (load32 t a) in
    let hi = Int64.of_int (load32 t (a + 4)) in
    Int64.logor lo (Int64.shift_left hi 32)

let store64 t a v =
  let o = off t a in
  if o + 8 <= t.chunk_bytes then Bytes.set_int64_le (chunk t a) o v
  else begin
    store32 t a (Int64.to_int (Int64.logand v 0xffffffffL));
    store32 t (a + 4) (Int64.to_int (Int64.shift_right_logical v 32))
  end

let loadf t a = Int64.float_of_bits (load64 t a)
let storef t a v = store64 t a (Int64.bits_of_float v)

(* Bulk copies between simulated memory and a host buffer, one
   [Bytes.blit] per chunk the range touches: a range that straddles a
   chunk boundary is split there. *)
let load_bytes t a buf ~pos ~len =
  let a = ref a and pos = ref pos and len = ref len in
  while !len > 0 do
    let o = !a land t.off_mask in
    let piece = min !len (t.chunk_bytes - o) in
    Bytes.blit (chunk_fast t !a) o buf !pos piece;
    a := !a + piece;
    pos := !pos + piece;
    len := !len - piece
  done

let store_bytes t a buf ~pos ~len =
  let a = ref a and pos = ref pos and len = ref len in
  while !len > 0 do
    let o = !a land t.off_mask in
    let piece = min !len (t.chunk_bytes - o) in
    Bytes.blit buf !pos (chunk_fast t !a) o piece;
    a := !a + piece;
    pos := !pos + piece;
    len := !len - piece
  done

let blit t ~src ~dst ~bytes =
  if bytes > 0 then begin
    let tmp = Bytes.create bytes in
    load_bytes t src tmp ~pos:0 ~len:bytes;
    store_bytes t dst tmp ~pos:0 ~len:bytes
  end

let fill_zero t a ~bytes =
  let o = off t a in
  if bytes > 0 && o + bytes <= t.chunk_bytes then
    Bytes.fill (chunk t a) o bytes '\000'
  else
    for i = 0 to bytes - 1 do
      store8 t (a + i) 0
    done

let chunks_allocated t = t.materialized
let chunk_bytes t = t.chunk_bytes
