module A = Memsim.Addr
module T = Alloc.Int_table

(* ------------------------------------------------------------------ *)
(* Reuse distance over a compacted clock                               *)
(* ------------------------------------------------------------------ *)

module Reuse = struct
  (* Every block seen so far holds one flag in a Fenwick tree, at the
     clock position of its latest access, and [owner] maps a position
     back to its block (-1 once the flag has moved on).  The flags after
     position [t0] belong to exactly the other blocks touched since [t0],
     so an access whose block's flag sits at [t0] has distance
     [distinct - prefix t0].

     When the clock reaches the tree's capacity, the live flags are
     renumbered 1..distinct in clock order, which keeps every distance,
     and the capacity doubles until it is at least four times [distinct].
     Memory is O(distinct blocks), an access costs O(log distinct
     blocks), and a compaction's O(capacity) is paid for by the three
     quarters of the capacity it frees. *)
  type t = {
    block_bytes : int;
    last : T.t;  (* block index -> position of its flag *)
    mutable tree : int array;  (* Fenwick tree over positions 1..capacity *)
    mutable owner : int array;  (* position -> block index, or -1 *)
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
      last = T.create 128;
      tree = Array.make 129 0;
      owner = Array.make 129 (-1);
      clock = 0;
      hist = Array.make 64 0;
      time = 0;
      cold = 0;
    }

  let add tree i delta =
    let n = Array.length tree in
    let i = ref i in
    while !i < n do
      Array.unsafe_set tree !i (Array.unsafe_get tree !i + delta);
      i := !i + (!i land - !i)
    done

  (* sum of positions [1..i] *)
  let prefix tree i =
    let i = ref i in
    let s = ref 0 in
    while !i > 0 do
      s := !s + Array.unsafe_get tree !i;
      i := !i - (!i land - !i)
    done;
    !s

  let compact t =
    let distinct = T.length t.last in
    let cap = ref (Array.length t.tree - 1) in
    while !cap < 4 * distinct do
      cap := 2 * !cap
    done;
    let src = t.owner in
    if !cap >= Array.length t.tree then begin
      t.owner <- Array.make (!cap + 1) (-1);
      t.tree <- Array.make (!cap + 1) 0
    end;
    (* [k <= p], so the renumbering may run in place *)
    let k = ref 0 in
    for p = 1 to t.clock do
      let b = src.(p) in
      if b >= 0 then begin
        incr k;
        t.owner.(!k) <- b;
        T.replace t.last b !k
      end
    done;
    t.clock <- !k;
    (* node [i] covers positions (i - lowbit i, i]; flags fill 1..k *)
    let tree = t.tree in
    for i = 1 to Array.length tree - 1 do
      tree.(i) <- max 0 (min i !k - (i - (i land -i)))
    done

  let record t d =
    let n = Array.length t.hist in
    if d >= n then begin
      let hist = Array.make (max (d + 1) (2 * n)) 0 in
      Array.blit t.hist 0 hist 0 n;
      t.hist <- hist
    end;
    t.hist.(d) <- t.hist.(d) + 1

  let on_access t _write addr =
    let b = A.block_index addr ~block_bytes:t.block_bytes in
    t.time <- t.time + 1;
    if t.clock = Array.length t.tree - 1 then compact t;
    let t0 = T.find_or t.last b ~default:0 in
    (* a re-reference to the newest flag's block has distance 0 and
       leaves the flags in order *)
    if t0 = t.clock && t0 > 0 then record t 0
    else begin
      let now = t.clock + 1 in
      t.clock <- now;
      if t0 = 0 then t.cold <- t.cold + 1
      else begin
        record t (T.length t.last - prefix t.tree t0);
        add t.tree t0 (-1);
        t.owner.(t0) <- -1
      end;
      add t.tree now 1;
      t.owner.(now) <- b;
      T.replace t.last b now
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

  let miss_rate_curve t ~capacities_blocks =
    List.map (fun c -> (c, implied_miss_rate t ~blocks:c)) capacities_blocks

  (* Epoch snapshots: the histogram's counters only grow, so a snapshot
     of (accesses, implied misses at a fixed capacity) turns the
     whole-run histogram into a windowed one by subtraction — an O(1)
     mark and an O(histogram) delta, no second profiler needed. *)
  type epoch = { e_time : int; e_implied : int; e_blocks : int }

  let epoch_start t ~blocks =
    { e_time = t.time; e_implied = implied_misses t ~blocks; e_blocks = blocks }

  let epoch_accesses t ~since = t.time - since.e_time

  let epoch_implied_misses t ~since =
    implied_misses t ~blocks:since.e_blocks - since.e_implied

  let epoch_miss_rate t ~since =
    let a = epoch_accesses t ~since in
    if a = 0 then 0.
    else float_of_int (epoch_implied_misses t ~since) /. float_of_int a

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
    { block_bytes; word_bytes; words_per_block; masks = T.create 128; accesses = 0 }

  let on_access t _write addr =
    t.accesses <- t.accesses + 1;
    let b = A.block_index addr ~block_bytes:t.block_bytes in
    let w = A.offset_in_block addr ~block_bytes:t.block_bytes / t.word_bytes in
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

  let measured_k t ~elem_bytes =
    if elem_bytes <= 0 then invalid_arg "Spatial.measured_k: elem_bytes <= 0";
    avg_words_touched t *. float_of_int t.word_bytes /. float_of_int elem_bytes

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
    cfg : Memsim.Cache_config.t;
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
    { cfg; hot_first_set; hot_sets; counts = Array.make sets 0; accesses = 0 }

  let on_access t _write addr =
    let s = Memsim.Cache_config.set_of_addr t.cfg addr in
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

let create ?hot_first_set ?(hot_frac = 0.5) ~l2 () =
  let block_bytes = l2.Memsim.Cache_config.block_bytes in
  let hot_sets =
    int_of_float (hot_frac *. float_of_int l2.Memsim.Cache_config.sets)
  in
  {
    reuse = Reuse.create ~block_bytes;
    spatial = Spatial.create ~block_bytes ();
    occupancy = Occupancy.create ?hot_first_set ~hot_sets l2;
  }

let for_machine ?hot_first_set ?hot_frac m =
  let l2 =
    Memsim.Cache.config (Memsim.Hierarchy.l2 (Memsim.Machine.hierarchy m))
  in
  create ?hot_first_set ?hot_frac ~l2 ()

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
