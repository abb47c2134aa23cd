(* Linear probing over two flat int arrays.  [keys.(i) = empty] marks a
   free slot; deletion shifts later entries of the probe run back
   (Knuth's Algorithm R), so there are no tombstones and a lookup stops
   at the first free slot.  The load factor stays at or below 3/4.

   The table quadruples when it fills rather than doubling.  Every
   outgrown pair of arrays is garbage until the next major collection
   finishes, and with doubling that garbage adds up to the final table's
   size; quadrupling cuts it to a third.  The factor was measured on a
   table built up to 2^18 entries, malloc's live table for the
   tree-search benchmark's heap at the time, which peaked ~13 MB higher
   when it doubled.  The allocators no longer keep one; the tables left
   are [Obs.Profile]'s, [Analyze.Shadow]'s, [Ccmorph]'s page count and
   mst's edge set. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable shift : int;  (* 63 - log2 capacity *)
  mutable count : int;
}

let empty = -1

(* Fibonacci hashing: the top bits of [k * 2^62/phi] (mod 2^63). *)
let[@inline] home t k = (k * 0x278DDE6E5FD29F05) lsr t.shift

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create n =
  let cap = ref 8 in
  while !cap < n do
    cap := 2 * !cap
  done;
  {
    keys = Array.make !cap empty;
    vals = Array.make !cap 0;
    mask = !cap - 1;
    shift = 63 - log2 !cap;
    count = 0;
  }

let length t = t.count

(* Slot holding [k], or the free slot that ends its probe run. *)
let rec slot t k i =
  let x = Array.unsafe_get t.keys i in
  if x = k || x = empty then i else slot t k ((i + 1) land t.mask)

let find_or t k ~default =
  if k < 0 then default
  else
    let i = slot t k (home t k) in
    if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i
    else default

let mem t k = k >= 0 && Array.unsafe_get t.keys (slot t k (home t k)) = k

let rec insert t k v =
  let i = slot t k (home t k) in
  if Array.unsafe_get t.keys i = k then Array.unsafe_set t.vals i v
  else add_at t i k v

(* Bind [k], absent, at [i], the free slot that ends its probe run; a
   growth moves every slot, so [k] is then probed for again. *)
and add_at t i k v =
  if 4 * (t.count + 1) > 3 * (t.mask + 1) then begin
    grow t;
    insert t k v
  end
  else begin
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v;
    t.count <- t.count + 1
  end

and grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 4 * (t.mask + 1) in
  t.keys <- Array.make cap empty;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  t.shift <- t.shift - 2;
  t.count <- 0;
  Array.iteri (fun i k -> if k <> empty then insert t k vals.(i)) keys

let exchange t k v ~default =
  if k < 0 then invalid_arg "Int_table.exchange: negative key";
  let i = slot t k (home t k) in
  if Array.unsafe_get t.keys i = k then begin
    let old = Array.unsafe_get t.vals i in
    Array.unsafe_set t.vals i v;
    old
  end
  else begin
    add_at t i k v;
    default
  end

let replace t k v =
  if k < 0 then invalid_arg "Int_table.replace: negative key";
  insert t k v

(* Close the gap at [hole]: move back every later entry of the run whose
   home slot does not lie cyclically in (hole, j]. *)
let rec close t hole j =
  let j = (j + 1) land t.mask in
  let k = Array.unsafe_get t.keys j in
  if k = empty then Array.unsafe_set t.keys hole empty
  else
    let h = home t k in
    let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
    if stays then close t hole j
    else begin
      Array.unsafe_set t.keys hole k;
      Array.unsafe_set t.vals hole (Array.unsafe_get t.vals j);
      close t j j
    end

let remove t k =
  if k >= 0 then begin
    let i = slot t k (home t k) in
    if Array.unsafe_get t.keys i = k then begin
      t.count <- t.count - 1;
      close t i i
    end
  end

let map_inplace f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> empty then vals.(i) <- f k vals.(i)
  done

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> empty then f k vals.(i)
  done
