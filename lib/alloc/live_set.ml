module A = Memsim.Addr

type t = {
  page_shift : int;
  off_mask : int;  (* page_bytes - 1 *)
  bitset_bytes : int;  (* page_bytes / 64: one bit per 8-byte granule *)
  mutable dir : Bytes.t array;
}

(* Every page without a member shares this bitset: zero-length, so the
   in-bitset test [byte < Bytes.length bits] fails on it. *)
let no_page = Bytes.empty

let create ~page_bytes =
  if not (A.is_pow2 page_bytes) || page_bytes < 64 then
    invalid_arg "Live_set.create: page_bytes must be a power of two >= 64";
  {
    page_shift = A.log2 page_bytes;
    off_mask = page_bytes - 1;
    bitset_bytes = page_bytes / 64;
    dir = Array.make 64 no_page;
  }

(* A negative address shifts far past the directory's end. *)
let[@inline] bits t a =
  let i = a lsr t.page_shift in
  if i < Array.length t.dir then Array.unsafe_get t.dir i else no_page

let[@inline] granule t a = (a land t.off_mask) lsr 3

let mem t a =
  a land 7 = 0
  &&
  let bits = bits t a and g = granule t a in
  g lsr 3 < Bytes.length bits
  && Char.code (Bytes.unsafe_get bits (g lsr 3)) land (1 lsl (g land 7)) <> 0

(* The bitset of [a]'s page, created (and the directory grown) on
   first use. *)
let page t a =
  let i = a lsr t.page_shift in
  let n = Array.length t.dir in
  if i >= n then begin
    let bigger = Array.make (max (i + 1) (2 * n)) no_page in
    Array.blit t.dir 0 bigger 0 n;
    t.dir <- bigger
  end;
  let p = Array.unsafe_get t.dir i in
  if p != no_page then p
  else begin
    let p = Bytes.make t.bitset_bytes '\000' in
    t.dir.(i) <- p;
    p
  end

let add t a =
  if a < 0 || a land 7 <> 0 then
    invalid_arg "Live_set.add: negative or misaligned address";
  let bits = page t a and g = granule t a in
  let byte = Char.code (Bytes.unsafe_get bits (g lsr 3)) in
  Bytes.unsafe_set bits (g lsr 3) (Char.unsafe_chr (byte lor (1 lsl (g land 7))))

let remove t a =
  if mem t a then begin
    let bits = bits t a and g = granule t a in
    let byte = Char.code (Bytes.unsafe_get bits (g lsr 3)) in
    Bytes.unsafe_set bits (g lsr 3)
      (Char.unsafe_chr (byte land lnot (1 lsl (g land 7))))
  end

let iter f t =
  Array.iteri
    (fun i bits ->
      for byte = 0 to Bytes.length bits - 1 do
        let v = Char.code (Bytes.get bits byte) in
        if v <> 0 then
          for bit = 0 to 7 do
            if v land (1 lsl bit) <> 0 then
              f ((i lsl t.page_shift) + ((8 * byte) + bit) * 8)
          done
      done)
    t.dir
