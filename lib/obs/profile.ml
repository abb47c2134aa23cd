module A = Memsim.Addr
module T = Alloc.Int_table

(* ------------------------------------------------------------------ *)
(* Reuse distance over a compacted clock                               *)
(* ------------------------------------------------------------------ *)

module Reuse = struct
  (* Every block seen so far holds one flag, at the clock position of
     its latest access, and [last] maps the block to that position.  The
     flags after position [t0] belong to exactly the other blocks touched
     since [t0], so an access whose block's flag sits at [t0] has
     distance [distinct - (flags at 1..t0)].

     The flags are bits, 32 positions to an int word: position [p] is
     bit [p land 31] of word [p lsr 5], and position 0 is never used.
     The word holding the clock is open; every earlier word is closed and
     counts in a Fenwick tree over words, which it enters with one
     popcount when the clock leaves it.  A re-reference whose flag is in
     the open word costs one popcount, any other one prefix query and one
     update over capacity/32 words.

     When the clock reaches the last position, the live flags are
     renumbered 1..distinct in clock order, which keeps every distance,
     and the capacity doubles until it is at least four times
     [distinct].  Memory is O(distinct blocks), an access costs
     O(log distinct blocks), and a compaction's O(distinct log distinct)
     is paid for by the three quarters of the capacity it frees. *)
  type t = {
    block_bytes : int;
    block_shift : int;
    last : T.t;  (* block index -> position of its flag *)
    mutable prev : int;  (* the previous access's block, -1 before any *)
    mutable flags : int array;  (* capacity / 32 words of flags *)
    mutable tree : int array;  (* Fenwick tree over closed words' counts *)
    mutable clock : int;  (* the last position handed out *)
    mutable hist : int array;  (* finite distance -> count *)
    mutable time : int;
    mutable cold : int;
  }

  let create ~block_bytes =
    if not (A.is_pow2 block_bytes) then
      invalid_arg "Reuse.create: block_bytes must be a power of two";
    {
      block_bytes;
      block_shift = A.log2 block_bytes;
      last = T.create 128;
      prev = -1;
      flags = Array.make 4 0;
      tree = Array.make 5 0;
      clock = 0;
      hist = Array.make 64 0;
      time = 0;
      cold = 0;
    }

  (* set bits of a word of at most 32 *)
  let popcount x =
    let x = x - ((x lsr 1) land 0x55555555) in
    let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
    let x = (x + (x lsr 4)) land 0x0f0f0f0f in
    ((x * 0x01010101) lsr 24) land 0xff

  (* Word [w] is tree node [w + 1]; node [i] covers words
     [i - lowbit i, i). *)
  let add tree w delta =
    let n = Array.length tree in
    let i = ref (w + 1) in
    while !i < n do
      Array.unsafe_set tree !i (Array.unsafe_get tree !i + delta);
      i := !i + (!i land - !i)
    done

  (* flags in the closed words [0, w) *)
  let prefix tree w =
    let i = ref w in
    let s = ref 0 in
    while !i > 0 do
      s := !s + Array.unsafe_get tree !i;
      i := !i - (!i land - !i)
    done;
    !s

  (* flags at positions 1..p, for [p] no later than the clock *)
  let rank t p =
    let w = p lsr 5 in
    prefix t.tree w + popcount (t.flags.(w) land ((2 lsl (p land 31)) - 1))

  let compact t =
    let distinct = T.length t.last in
    T.map_inplace (fun _ p -> rank t p) t.last;
    let words = ref (Array.length t.flags) in
    while 32 * !words < 4 * distinct do
      words := 2 * !words
    done;
    if !words > Array.length t.flags then begin
      t.flags <- Array.make !words 0;
      t.tree <- Array.make (!words + 1) 0
    end;
    (* flags fill 1..distinct, so the clock's word is the only open one *)
    let flags = t.flags and tree = t.tree in
    let open_w = distinct lsr 5 in
    for w = 0 to !words - 1 do
      flags.(w) <-
        (if w < open_w then 0xffffffff
         else if w = open_w then (2 lsl (distinct land 31)) - 1
         else 0)
    done;
    flags.(0) <- flags.(0) land lnot 1;
    t.clock <- distinct;
    for i = 1 to !words do
      tree.(i) <- (if i <= open_w then popcount flags.(i - 1) else 0)
    done;
    for i = 1 to !words do
      let j = i + (i land -i) in
      if j <= !words then tree.(j) <- tree.(j) + tree.(i)
    done

  let record t d =
    let n = Array.length t.hist in
    if d >= n then begin
      let hist = Array.make (max (d + 1) (2 * n)) 0 in
      Array.blit t.hist 0 hist 0 n;
      t.hist <- hist
    end;
    t.hist.(d) <- t.hist.(d) + 1

  (* The flag at the clock always belongs to the previous access's
     block (a compaction keeps the clock order), so a re-reference to
     that block has distance 0 and leaves the flags as they are: it needs
     no table probe and no compaction check.  Every other access moves
     its block's flag to the next position, reading the old one and
     writing the new one in one probe of [last]. *)
  let on_access t _write addr =
    let b = addr lsr t.block_shift in
    t.time <- t.time + 1;
    if b = t.prev then t.hist.(0) <- t.hist.(0) + 1
    else begin
      t.prev <- b;
      if t.clock = (Array.length t.flags lsl 5) - 1 then compact t;
      let clock = t.clock in
      let now = clock + 1 in
      let t0 = T.exchange t.last b now ~default:0 in
      let flags = t.flags in
      let open_w = clock lsr 5 in
      if t0 = 0 then t.cold <- t.cold + 1
      else begin
        let w0 = t0 lsr 5 and bit = 1 lsl (t0 land 31) in
        let word = flags.(w0) in
        if w0 = open_w then record t (popcount (word land -(bit lsl 1)))
        else begin
          record t
            (T.length t.last - prefix t.tree w0
            - popcount (word land ((bit lsl 1) - 1)));
          add t.tree w0 (-1)
        end;
        flags.(w0) <- word lxor bit
      end;
      let w = now lsr 5 in
      if w <> open_w then
        add t.tree open_w (popcount flags.(open_w));
      flags.(w) <- flags.(w) lor (1 lsl (now land 31));
      t.clock <- now
    end

  let accesses t = t.time
  let cold_misses t = t.cold
  let distinct_blocks t = T.length t.last

  let histogram t =
    let acc = ref [] in
    for d = Array.length t.hist - 1 downto 0 do
      if t.hist.(d) > 0 then acc := (d, t.hist.(d)) :: !acc
    done;
    !acc

  (* bins [0, 0], [1, 1], [2, 3], [4, 7], ... that hold a distance *)
  let binned t =
    let n = Array.length t.hist in
    let rec bins lo acc =
      if lo >= n then List.rev acc
      else
        let hi = if lo = 0 then 0 else (2 * lo) - 1 in
        let c = ref 0 in
        for d = lo to min hi (n - 1) do
          c := !c + t.hist.(d)
        done;
        bins (hi + 1) (if !c > 0 then (lo, hi, !c) :: acc else acc)
    in
    bins 0 []

  let implied_misses t ~blocks =
    let s = ref t.cold in
    for d = max 0 blocks to Array.length t.hist - 1 do
      s := !s + t.hist.(d)
    done;
    !s

  let implied_miss_rate t ~blocks =
    if t.time = 0 then 0.
    else float_of_int (implied_misses t ~blocks) /. float_of_int t.time

  let to_json t =
    Json.Obj
      [
        ("block_bytes", Json.Int t.block_bytes);
        ("accesses", Json.Int t.time);
        ("cold_misses", Json.Int t.cold);
        ("distinct_blocks", Json.Int (distinct_blocks t));
        ( "histogram",
          Json.List
            (List.map
               (fun (lo, hi, c) ->
                 Json.Obj
                   [
                     ("distance_lo", Json.Int lo);
                     ("distance_hi", Json.Int hi);
                     ("count", Json.Int c);
                   ])
               (binned t)) );
      ]

  let pp ppf t =
    Format.fprintf ppf
      "reuse distance (%d B blocks): %d accesses, %d distinct blocks, %d cold@."
      t.block_bytes t.time (distinct_blocks t) t.cold;
    let total = max 1 t.time in
    List.iter
      (fun (lo, hi, c) ->
        Format.fprintf ppf "  d %9d..%-9d %10d  (%5.2f%%)@." lo hi c
          (100. *. float_of_int c /. float_of_int total))
      (binned t)
end

(* ------------------------------------------------------------------ *)
(* Spatial locality / block utilization                                *)
(* ------------------------------------------------------------------ *)

module Spatial = struct
  type t = {
    block_bytes : int;
    word_bytes : int;
    words_per_block : int;
    block_shift : int;
    word_shift : int;
    masks : T.t;  (* block index -> touched-word bitmask, never 0 *)
    mutable accesses : int;
  }

  let create ?(word_bytes = 4) ~block_bytes () =
    if not (A.is_pow2 block_bytes && A.is_pow2 word_bytes) then
      invalid_arg "Spatial.create: sizes must be powers of two";
    let words_per_block = block_bytes / word_bytes in
    (* one mask bit per word, and an int has [Sys.int_size] bits *)
    if words_per_block < 1 || words_per_block > Sys.int_size then
      invalid_arg
        (Printf.sprintf "Spatial.create: between 1 and %d words per block"
           Sys.int_size);
    {
      block_bytes;
      word_bytes;
      words_per_block;
      block_shift = A.log2 block_bytes;
      word_shift = A.log2 word_bytes;
      masks = T.create 128;
      accesses = 0;
    }

  let on_access t _write addr =
    t.accesses <- t.accesses + 1;
    let b = addr lsr t.block_shift in
    let w = (addr lsr t.word_shift) land (t.words_per_block - 1) in
    let prev = T.find_or t.masks b ~default:0 in
    let mask = prev lor (1 lsl w) in
    if mask <> prev then T.replace t.masks b mask

  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go m 0

  let blocks_touched t = T.length t.masks

  let touched_words t =
    let n = ref 0 in
    T.iter (fun _ m -> n := !n + popcount m) t.masks;
    !n

  let avg_words_touched t =
    let n = blocks_touched t in
    if n = 0 then 0. else float_of_int (touched_words t) /. float_of_int n

  let utilization t =
    if blocks_touched t = 0 then 0.
    else avg_words_touched t /. float_of_int t.words_per_block

  let words_histogram t =
    let counts = Array.make (t.words_per_block + 1) 0 in
    T.iter (fun _ m -> counts.(popcount m) <- counts.(popcount m) + 1) t.masks;
    Array.to_list counts
    |> List.mapi (fun w c -> (w, c))
    |> List.filter (fun (_, c) -> c > 0)

  let to_json t =
    Json.Obj
      [
        ("block_bytes", Json.Int t.block_bytes);
        ("word_bytes", Json.Int t.word_bytes);
        ("accesses", Json.Int t.accesses);
        ("blocks_touched", Json.Int (blocks_touched t));
        ("avg_words_touched", Json.Float (avg_words_touched t));
        ("utilization", Json.Float (utilization t));
        ( "words_histogram",
          Json.List
            (List.map
               (fun (w, c) ->
                 Json.Obj [ ("words", Json.Int w); ("blocks", Json.Int c) ])
               (words_histogram t)) );
      ]

  let pp ppf t =
    Format.fprintf ppf
      "block utilization (%d B blocks, %d B words): %d blocks, %.2f/%d words \
       touched (%.1f%%)@."
      t.block_bytes t.word_bytes (blocks_touched t) (avg_words_touched t)
      t.words_per_block
      (100. *. utilization t)
end

(* ------------------------------------------------------------------ *)
(* Cache-set occupancy                                                 *)
(* ------------------------------------------------------------------ *)

module Occupancy = struct
  type t = {
    block_shift : int;
    set_mask : int;
    hot_first_set : int;
    hot_sets : int;
    counts : int array;
    mutable accesses : int;
  }

  let create ?(hot_first_set = 0) ?hot_sets cfg =
    let sets = cfg.Memsim.Cache_config.sets in
    let hot_sets = Option.value hot_sets ~default:(sets / 2) in
    if hot_first_set < 0 || hot_sets < 0 || hot_first_set + hot_sets > sets then
      invalid_arg "Occupancy.create: hot region exceeds the cache";
    {
      block_shift = A.log2 cfg.Memsim.Cache_config.block_bytes;
      set_mask = sets - 1;
      hot_first_set;
      hot_sets;
      counts = Array.make sets 0;
      accesses = 0;
    }

  let on_access t _write addr =
    let s = (addr lsr t.block_shift) land t.set_mask in
    t.counts.(s) <- t.counts.(s) + 1;
    t.accesses <- t.accesses + 1

  let accesses t = t.accesses
  let set_counts t = t.counts

  let in_hot t s = s >= t.hot_first_set && s < t.hot_first_set + t.hot_sets

  let hot_accesses t =
    let acc = ref 0 in
    Array.iteri (fun s c -> if in_hot t s then acc := !acc + c) t.counts;
    !acc

  let hot_share t =
    if t.accesses = 0 then 0.
    else float_of_int (hot_accesses t) /. float_of_int t.accesses

  let buckets t n =
    let sets = Array.length t.counts in
    let n = min n sets in
    let out = Array.make n 0 in
    Array.iteri (fun s c -> out.(s * n / sets) <- (out.(s * n / sets) + c)) t.counts;
    out

  let pp_heatmap ppf t =
    let n = 64 in
    let b = buckets t n in
    let peak = Array.fold_left max 1 b in
    let shades = " .:-=+*#%@" in
    let glyph c =
      if c = 0 then ' '
      else
        let i = 1 + (c * (String.length shades - 2) / peak) in
        shades.[min i (String.length shades - 1)]
    in
    let sets = Array.length t.counts in
    let marker i =
      (* bucket i covers sets [i*sets/n, (i+1)*sets/n) *)
      let lo = i * sets / n and hi = ((i + 1) * sets / n) - 1 in
      if in_hot t lo && in_hot t hi then '^' else ' '
    in
    Format.fprintf ppf "  sets 0..%d left to right, %d sets/char, peak %d \
                        accesses/char@."
      (sets - 1) (max 1 (sets / n)) peak;
    Format.fprintf ppf "  [%s]@." (String.init n (fun i -> glyph b.(i)));
    Format.fprintf ppf "   %s   <- hot region@." (String.init n marker)

  let to_json t =
    let b = buckets t 64 in
    Json.Obj
      [
        ("sets", Json.Int (Array.length t.counts));
        ("hot_first_set", Json.Int t.hot_first_set);
        ("hot_sets", Json.Int t.hot_sets);
        ("accesses", Json.Int t.accesses);
        ("hot_accesses", Json.Int (hot_accesses t));
        ("hot_share", Json.Float (hot_share t));
        ( "buckets",
          Json.List (Array.to_list (Array.map (fun c -> Json.Int c) b)) );
      ]
end

(* ------------------------------------------------------------------ *)
(* Counts: per-word access counts (layout-engine weights)              *)
(* ------------------------------------------------------------------ *)

module Counts = struct
  type t = { tbl : T.t; mutable total : int }

  let create () = { tbl = T.create 128; total = 0 }
  let word addr = addr land lnot 3

  let on_access t _write addr =
    let w = word addr in
    T.replace t.tbl w (1 + T.find_or t.tbl w ~default:0);
    t.total <- t.total + 1

  let attach t m = Memsim.Machine.subscribe m (on_access t)
  let total t = t.total
  let count t addr = T.find_or t.tbl (word addr) ~default:0

  let weight_in t addr ~bytes =
    let sum = ref 0 in
    let w = ref (word addr) in
    while !w < addr + bytes do
      sum := !sum + T.find_or t.tbl !w ~default:0;
      w := !w + 4
    done;
    float_of_int !sum

  let weight_fn t ~elem_bytes addr = weight_in t addr ~bytes:elem_bytes

  let to_json t =
    Json.Obj
      [
        ("accesses", Json.Int t.total);
        ("distinct_words", Json.Int (T.length t.tbl));
      ]
end

(* ------------------------------------------------------------------ *)
(* Combined                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  reuse : Reuse.t;
  spatial : Spatial.t;
  occupancy : Occupancy.t;
}

let create ?hot_first_set ~l2 () =
  let block_bytes = l2.Memsim.Cache_config.block_bytes in
  (* the paper's Color_const: the hot region is half the sets *)
  let hot_sets = l2.Memsim.Cache_config.sets / 2 in
  {
    reuse = Reuse.create ~block_bytes;
    spatial = Spatial.create ~block_bytes ();
    occupancy = Occupancy.create ?hot_first_set ~hot_sets l2;
  }

let for_machine ?hot_first_set m =
  let l2 =
    Memsim.Cache.config (Memsim.Hierarchy.l2 (Memsim.Machine.hierarchy m))
  in
  create ?hot_first_set ~l2 ()

let tracer t write addr =
  Reuse.on_access t.reuse write addr;
  Spatial.on_access t.spatial write addr;
  Occupancy.on_access t.occupancy write addr

let attach t m = Memsim.Machine.subscribe m (tracer t)

let to_json t =
  Json.Obj
    [
      ("reuse", Reuse.to_json t.reuse);
      ("spatial", Spatial.to_json t.spatial);
      ("occupancy", Occupancy.to_json t.occupancy);
    ]

let pp ppf t =
  Reuse.pp ppf t.reuse;
  Spatial.pp ppf t.spatial;
  Format.fprintf ppf "set occupancy: hot share %.1f%% (sets %d..%d of %d)@."
    (100. *. Occupancy.hot_share t.occupancy)
    t.occupancy.Occupancy.hot_first_set
    (t.occupancy.Occupancy.hot_first_set + t.occupancy.Occupancy.hot_sets - 1)
    (Array.length (Occupancy.set_counts t.occupancy));
  Occupancy.pp_heatmap ppf t.occupancy
