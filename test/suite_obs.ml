(* Tests for the telemetry layer: JSON round-trips and envelope
   validation, the locality profilers (reuse distance checked against a brute-force LRU-stack
   oracle), trace replay against a live machine, and the profile
   subcommand's implied-vs-simulated miss-rate cross-check. *)

module J = Obs.Json
module Machine = Memsim.Machine
module Config = Memsim.Config
module Cache = Memsim.Cache
module Hierarchy = Memsim.Hierarchy

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let sample_json =
  J.Obj
    [
      ("null", J.Null);
      ("bools", J.List [ J.Bool true; J.Bool false ]);
      ("int", J.Int (-42));
      ("big", J.Int max_int);
      ("floats", J.List [ J.Float 0.0625; J.Float (-3.5); J.Float 1e-9 ]);
      ("integral_float", J.Float 3.0);
      ("string", J.String "hi \"there\"\n\ttab \\ slash");
      ("empty_obj", J.Obj []);
      ("empty_list", J.List []);
      ("nested", J.Obj [ ("a", J.List [ J.Obj [ ("b", J.Int 1) ] ]) ]);
    ]

let test_json_roundtrip () =
  let check_rt ?minify v =
    match J.of_string (J.to_string ?minify v) with
    | Ok v' -> Alcotest.(check bool) "round-trip equal" true (J.equal v v')
    | Error e -> Alcotest.failf "parse error: %s" e
  in
  check_rt sample_json;
  check_rt ~minify:true sample_json;
  check_rt (J.Int 0);
  check_rt (J.String "");
  check_rt (J.List [])

let test_json_floats () =
  (* Non-finite floats must still emit valid JSON. *)
  Alcotest.(check string) "nan is null" "null" (J.to_string (J.Float nan));
  Alcotest.(check string)
    "inf is null" "null"
    (J.to_string (J.Float infinity));
  (* Integral floats keep a marker so they parse back as floats. *)
  (match J.of_string (J.to_string (J.Float 2.0)) with
  | Ok (J.Float f) -> Alcotest.(check (float 0.)) "2.0" 2.0 f
  | _ -> Alcotest.fail "integral float did not parse as Float");
  match J.of_string "[1, 2.5, -3]" with
  | Ok (J.List [ J.Int 1; J.Float _; J.Int -3 ]) -> ()
  | _ -> Alcotest.fail "int/float discrimination"

let test_json_accessors () =
  let v = sample_json in
  Alcotest.(check (option int)) "member int" (Some (-42))
    (Option.bind (J.member "int" v) J.to_int);
  Alcotest.(check bool) "missing member" true (J.member "nope" v = None);
  Alcotest.(check (option int)) "nested index" (Some 1)
    (Option.bind (J.member "nested" v) (fun n ->
         Option.bind (J.member "a" n) (fun l ->
             Option.bind (J.index 0 l) (fun o ->
                 Option.bind (J.member "b" o) J.to_int))));
  Alcotest.(check bool) "parse error reported" true
    (match J.of_string "{\"a\": }" with Error _ -> true | Ok _ -> false)

(* Random JSON trees round-trip.  Floats are drawn from a dyadic grid so
   the %.12g emission is exact. *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) (int_range (-1000000) 1000000);
        map (fun i -> J.Float (float_of_int i /. 16.)) (int_range (-4096) 4096);
        map (fun s -> J.String s) (string_size ~gen:printable (int_bound 12));
      ]
  in
  let rec tree n =
    if n = 0 then scalar
    else
      frequency
        [
          (2, scalar);
          (1, map (fun l -> J.List l) (list_size (int_bound 4) (tree (n - 1))));
          ( 1,
            map
              (fun kvs -> J.Obj kvs)
              (list_size (int_bound 4)
                 (pair (string_size ~gen:printable (int_bound 8)) (tree (n - 1))))
          );
        ]
  in
  tree 3

let prop_json_roundtrip =
  QCheck.Test.make ~count:200 ~name:"random JSON round-trips"
    (QCheck.make json_gen)
    (fun v ->
      match J.of_string (J.to_string v) with
      | Ok v' -> J.equal v v'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Export envelope                                                     *)
(* ------------------------------------------------------------------ *)

let test_envelope () =
  let env =
    Obs.Export.envelope ~experiment:"fig5" ~scale:"quick" ~seed:7
      (J.Obj [ ("x", J.Int 1) ])
  in
  (match Obs.Export.validate_envelope env with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid envelope rejected: %s" e);
  Alcotest.(check (option int)) "schema_version" (Some Obs.Export.schema_version)
    (Option.bind (J.member "schema_version" env) J.to_int);
  Alcotest.(check (option string)) "experiment" (Some "fig5")
    (Option.bind (J.member "experiment" env) J.to_str);
  Alcotest.(check (option int)) "seed" (Some 7)
    (Option.bind (J.member "seed" env) J.to_int);
  (* The envelope must survive emission and parsing. *)
  (match J.of_string (J.to_string env) with
  | Ok env' -> (
      match Obs.Export.validate_envelope env' with
      | Ok () -> ()
      | Error e -> Alcotest.failf "re-parsed envelope rejected: %s" e)
  | Error e -> Alcotest.failf "envelope did not parse: %s" e);
  let reject label v =
    match Obs.Export.validate_envelope v with
    | Ok () -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  reject "non-object" (J.Int 3);
  reject "missing data" (J.Obj [ ("schema_version", J.Int 1) ]);
  reject "bad version"
    (J.Obj
       [
         ("schema_version", J.Int 999);
         ("generator", J.String "ccsl");
         ("experiment", J.String "x");
         ("data", J.Obj []);
       ])

(* ------------------------------------------------------------------ *)
(* Reuse distance vs a brute-force LRU stack                           *)
(* ------------------------------------------------------------------ *)

(* O(n^2) oracle: the stack distance of an access is its block's
   position in a most-recent-first list of all blocks seen so far (-1
   on a first touch). *)
let brute_force_distances stream =
  let stack = ref [] in
  Array.map
    (fun b ->
      let rec remove acc i = function
        | [] -> (None, List.rev acc)
        | x :: tl when x = b -> (Some i, List.rev_append acc tl)
        | x :: tl -> remove (x :: acc) (i + 1) tl
      in
      let idx, rest = remove [] 0 !stack in
      stack := b :: rest;
      Option.value idx ~default:(-1))
    (Array.of_list stream)

(* (cold misses, ascending (distance, count)) over the first [n]
   distances *)
let histogram_of_distances ?n dists =
  let n = Option.value n ~default:(Array.length dists) in
  let hist = Hashtbl.create 64 in
  let cold = ref 0 in
  for i = 0 to n - 1 do
    let d = dists.(i) in
    if d < 0 then incr cold
    else
      Hashtbl.replace hist d
        (1 + Option.value (Hashtbl.find_opt hist d) ~default:0)
  done;
  let pairs = Hashtbl.fold (fun d c acc -> (d, c) :: acc) hist [] in
  (!cold, List.sort compare pairs)

let brute_force_histogram stream =
  histogram_of_distances (brute_force_distances stream)

let reuse_vs_oracle ~accesses ~universe ~block_bytes ~seed =
  let rng = Workload.Rng.create seed in
  let stream =
    List.init accesses (fun _ ->
        (* Mix of hot and uniform blocks so all distance ranges occur. *)
        if Workload.Rng.int rng 2 = 0 then Workload.Rng.int rng 8
        else Workload.Rng.int rng universe)
  in
  let r = Obs.Profile.Reuse.create ~block_bytes in
  List.iter
    (fun b ->
      (* Any offset within the block must land in the same bucket. *)
      let off = Workload.Rng.int rng block_bytes in
      Obs.Profile.Reuse.on_access r false ((b * block_bytes) + off))
    stream;
  let cold, hist = brute_force_histogram stream in
  Alcotest.(check int) "accesses" accesses (Obs.Profile.Reuse.accesses r);
  Alcotest.(check int) "cold misses" cold (Obs.Profile.Reuse.cold_misses r);
  Alcotest.(check (list (pair int int)))
    "full histogram matches oracle" hist
    (Obs.Profile.Reuse.histogram r);
  (* Implied misses at a few capacities, including non-powers of two. *)
  List.iter
    (fun cap ->
      let oracle =
        cold
        + List.fold_left
            (fun acc (d, c) -> if d >= cap then acc + c else acc)
            0 hist
      in
      Alcotest.(check int)
        (Printf.sprintf "implied misses at %d blocks" cap)
        oracle
        (Obs.Profile.Reuse.implied_misses r ~blocks:cap))
    [ 1; 3; 8; 17; 64; universe; 2 * universe ]

let test_reuse_oracle_small () =
  reuse_vs_oracle ~accesses:3000 ~universe:48 ~block_bytes:64 ~seed:11

(* More accesses than the compacted clock's initial 128 positions, so
   the live flags are renumbered several times, and a distance that
   spans a renumbering must still come out exact. *)
let test_reuse_oracle_growth () =
  reuse_vs_oracle ~accesses:10_000 ~universe:96 ~block_bytes:128 ~seed:23

let test_reuse_binned () =
  let r = Obs.Profile.Reuse.create ~block_bytes:64 in
  (* 0,1,...,9 then 0 again: distance 9 for the revisit. *)
  for b = 0 to 9 do
    Obs.Profile.Reuse.on_access r false (b * 64)
  done;
  Obs.Profile.Reuse.on_access r false 0;
  Alcotest.(check int) "distinct" 10 (Obs.Profile.Reuse.distinct_blocks r);
  Alcotest.(check (list (pair int int))) "one finite distance" [ (9, 1) ]
    (Obs.Profile.Reuse.histogram r);
  Alcotest.(check (list (triple int int int))) "binned into [8,15]"
    [ (8, 15, 1) ]
    (Obs.Profile.Reuse.binned r)

(* Rounds that take the compacted clock through many compactions and
   every capacity doubling from 128 to 32768 positions: a wide phase
   brings in 400 new blocks (4800 in all), a hot phase hammers 16 of
   them for 6000 accesses, so most positions between two compactions
   hold dead flags, and a revisit phase reaches back to blocks whose
   flags several compactions have renumbered since.  After every round
   the histogram and implied misses must match the oracle. *)
let test_reuse_oracle_compaction () =
  let module R = Obs.Profile.Reuse in
  let rng = Workload.Rng.create 37 in
  let rounds = 12 and block_bytes = 64 in
  let fresh = ref 0 and stream = ref [] and count = ref 0 and ends = ref [] in
  let emit b =
    stream := b :: !stream;
    incr count
  in
  for _ = 1 to rounds do
    for _ = 1 to 400 do
      emit !fresh;
      incr fresh;
      if Workload.Rng.int rng 2 = 0 then emit (Workload.Rng.int rng !fresh)
    done;
    let base = Workload.Rng.int rng (!fresh - 16) in
    for _ = 1 to 6000 do
      emit (base + Workload.Rng.int rng 16)
    done;
    for _ = 1 to 300 do
      emit (Workload.Rng.int rng !fresh)
    done;
    ends := !count :: !ends
  done;
  let dists = brute_force_distances (List.rev !stream) in
  let stream = Array.of_list (List.rev !stream) in
  let r = R.create ~block_bytes in
  let start = ref 0 in
  List.iteri
    (fun round stop ->
      for i = !start to stop - 1 do
        R.on_access r false ((stream.(i) * block_bytes) + (i mod block_bytes))
      done;
      let cold, hist = histogram_of_distances ~n:stop dists in
      let where = Printf.sprintf "round %d: " round in
      Alcotest.(check int) (where ^ "accesses") stop (R.accesses r);
      Alcotest.(check int) (where ^ "cold misses") cold (R.cold_misses r);
      Alcotest.(check int) (where ^ "distinct blocks") cold (R.distinct_blocks r);
      Alcotest.(check (list (pair int int))) (where ^ "histogram") hist
        (R.histogram r);
      List.iter
        (fun cap ->
          let oracle =
            cold
            + List.fold_left
                (fun acc (d, c) -> if d >= cap then acc + c else acc)
                0 hist
          in
          Alcotest.(check int)
            (Printf.sprintf "%simplied misses at %d blocks" where cap)
            oracle
            (R.implied_misses r ~blocks:cap))
        [ 1; 16; 100; 1000; 3000; 10_000 ];
      start := stop)
    (List.rev !ends)

(* The profiler keeps its flags as bits, 32 clock positions to a word
   (position [p] is bit [p land 31] of word [p lsr 5]; position 0 is
   unused), counts closed words in a Fenwick tree and answers an access
   whose old flag is in the clock's own open word with a popcount.  The
   streams below are built so that the first round of a fresh run puts
   block [i] at position [i + 1], and are checked against the oracle
   after every access. *)
let check_every_access ?(block_bytes = 64) stream =
  let module R = Obs.Profile.Reuse in
  let stream = Array.of_list stream in
  let dists = brute_force_distances (Array.to_list stream) in
  let r = R.create ~block_bytes in
  let hist = Array.make (Array.length stream + 1) 0 in
  let cold = ref 0 in
  Array.iteri
    (fun i b ->
      R.on_access r false ((b * block_bytes) + (i land (block_bytes - 1)));
      if dists.(i) < 0 then incr cold
      else hist.(dists.(i)) <- hist.(dists.(i)) + 1;
      let expected = ref [] in
      for d = Array.length hist - 1 downto 0 do
        if hist.(d) > 0 then expected := (d, hist.(d)) :: !expected
      done;
      let where = Printf.sprintf "access %d (block %d): " i b in
      Alcotest.(check int) (where ^ "cold misses") !cold (R.cold_misses r);
      Alcotest.(check int) (where ^ "distinct blocks") !cold
        (R.distinct_blocks r);
      Alcotest.(check (list (pair int int))) (where ^ "histogram") !expected
        (R.histogram r))
    stream

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

(* Blocks 0..9 take positions 1..10 of word 0, and their re-references
   find the old flag in the open word.  Fresh blocks then fill word 0
   up to block 26 at position 31, and block 27 opens word 1 at position
   32, which closes word 0; the re-references after that find flags in
   the word just closed (26, 1, 3, 24) and in the open word (27, then 26
   again).  The last run does the same across the boundary at position
   64. *)
let test_reuse_open_and_closed_word () =
  check_every_access
    (range 0 9
    @ [ 4; 0; 9; 9; 5; 2 ]
    @ range 10 24
    @ [ 26; 27; 25; 26; 1; 27; 3; 26; 24 ]
    @ range 28 80
    @ [ 60; 79; 30; 80; 62; 63; 64; 0; 40; 40; 79 ])

(* Block [i] of a fresh run sits at position [i + 1]: block 30 at bit 31
   of word 0 and block 31 at bit 0 of word 1, whose position closes word
   0.  Block 31 is re-referenced while its word is open, block 30 after
   its word closed; then blocks 60 and 61 sit at bits 31 and 0 either
   side of the next boundary and are re-referenced the same way.  A flag
   at bit 31 is always the newest of the open word, so it is re-read
   only once the word has closed.  At block sizes 1 and 256. *)
let test_reuse_word_edge_bits () =
  List.iter
    (fun block_bytes ->
      check_every_access ~block_bytes
        (range 0 33 @ [ 31; 30 ] @ range 34 62 @ [ 61; 60; 0; 31; 30 ]))
    [ 1; 256 ]

(* The clock's first 127 positions fill before the first compaction, so
   the 128th access of a round-robin over 32 blocks compacts to exactly
   32 live flags: the clock lands on bit 0 of word 1, with word 0 closed
   and holding 31 flags.  Reverse sweeps and near and far re-references
   follow, through the compactions after. *)
let test_reuse_compaction_on_word_boundary () =
  let rng = Workload.Rng.create 41 in
  let rr = List.concat (List.init 4 (fun _ -> range 0 31)) in
  let after =
    [ 0; 31; 0; 1; 30 ] @ List.rev (range 0 31)
    @ List.init 600 (fun i ->
          if i mod 3 = 0 then Workload.Rng.int rng 4
          else Workload.Rng.int rng 32)
  in
  check_every_access (rr @ after)

(* 33 and then 100 distinct blocks against a clock of 128 positions:
   each compaction must grow the capacity to keep it at least four times
   the live flags, and renumber the flags into the new words. *)
let test_reuse_compaction_grows () =
  let rng = Workload.Rng.create 43 in
  let rr n rounds = List.concat (List.init rounds (fun _ -> range 0 (n - 1))) in
  check_every_access
    (rr 33 5
    @ List.init 400 (fun _ -> Workload.Rng.int rng 33)
    @ rr 100 4
    @ List.init 800 (fun i ->
          if i mod 2 = 0 then Workload.Rng.int rng 8 else Workload.Rng.int rng 100)
    )

(* Random block sizes (1..256 bytes, powers of two) and universes
   (1..3000 blocks); each stream mixes a hot set, uniform picks and a
   sequential sweep, so distances span closed and open words and
   compactions at every capacity the stream reaches. *)
let prop_reuse_matches_oracle =
  let module R = Obs.Profile.Reuse in
  let gen =
    QCheck.Gen.(
      quad (int_bound 8) (int_range 1 3000) (int_range 1 1200) (int_bound 1_000_000))
  in
  QCheck.Test.make ~count:300
    ~name:"reuse profiler equals the LRU-stack oracle"
    (QCheck.make
       ~print:(fun (lg, u, n, seed) ->
         Printf.sprintf "block_bytes %d, universe %d, %d accesses, seed %d"
           (1 lsl lg) u n seed)
       gen)
    (fun (lg, universe, accesses, seed) ->
      let block_bytes = 1 lsl lg in
      let rng = Workload.Rng.create seed in
      let hot = 1 + Workload.Rng.int rng 40 and sweep = ref 0 in
      let stream =
        List.init accesses (fun _ ->
            match Workload.Rng.int rng 5 with
            | 0 | 1 -> Workload.Rng.int rng (min hot universe)
            | 2 | 3 -> Workload.Rng.int rng universe
            | _ ->
                sweep := (!sweep + 1) mod universe;
                !sweep)
      in
      let r = R.create ~block_bytes in
      List.iter
        (fun b ->
          R.on_access r false
            ((b * block_bytes) + Workload.Rng.int rng block_bytes))
        stream;
      let cold, hist = brute_force_histogram stream in
      let implied cap =
        cold
        + List.fold_left
            (fun acc (d, c) -> if d >= cap then acc + c else acc)
            0 hist
      in
      R.histogram r = hist
      && R.cold_misses r = cold
      && R.distinct_blocks r = cold
      && List.for_all
           (fun cap -> R.implied_misses r ~blocks:cap = implied cap)
           [ 0; 1; 31; 32; 33; universe; 2 * universe ])

(* The profiler's state grows with the distinct blocks, not with the
   accesses: 2M accesses over 1000 blocks. *)
let test_reuse_footprint () =
  let module R = Obs.Profile.Reuse in
  let accesses = 2_000_000 and blocks = 1000 in
  let top_heap () = (Gc.quick_stat ()).Gc.top_heap_words in
  let before = top_heap () in
  let r = R.create ~block_bytes:64 in
  let rng = Workload.Rng.create 3 in
  for _ = 1 to accesses do
    R.on_access r false (64 * Workload.Rng.int rng blocks)
  done;
  let grown = top_heap () - before in
  Alcotest.(check int) "accesses" accesses (R.accesses r);
  Alcotest.(check int) "distinct blocks" blocks (R.distinct_blocks r);
  let words = Obj.reachable_words (Obj.repr r) in
  if words > accesses / 50 then
    Alcotest.failf "profiler holds %d words after %d accesses" words accesses;
  if grown > accesses / 8 then
    Alcotest.failf "top heap grew by %d words over %d accesses" grown accesses

(* ------------------------------------------------------------------ *)
(* Spatial and occupancy profilers                                     *)
(* ------------------------------------------------------------------ *)

let test_spatial () =
  let s = Obs.Profile.Spatial.create ~block_bytes:32 () in
  (* Block 0: words 0 and 1 (word 1 twice); block 1: word 7. *)
  Obs.Profile.Spatial.on_access s false 0;
  Obs.Profile.Spatial.on_access s true 4;
  Obs.Profile.Spatial.on_access s false 6;
  Obs.Profile.Spatial.on_access s false (32 + 28);
  Alcotest.(check int) "blocks touched" 2 (Obs.Profile.Spatial.blocks_touched s);
  Alcotest.(check (float 1e-9)) "avg words" 1.5
    (Obs.Profile.Spatial.avg_words_touched s);
  Alcotest.(check (float 1e-9)) "utilization" (1.5 /. 8.)
    (Obs.Profile.Spatial.utilization s);
  Alcotest.(check (float 1e-9)) "measured K for 6-byte elems" 1.0
    (Obs.Profile.Spatial.measured_k s ~elem_bytes:6);
  Alcotest.(check (list (pair int int))) "words histogram" [ (1, 1); (2, 1) ]
    (Obs.Profile.Spatial.words_histogram s)

(* One mask bit per word: the largest block holds [Sys.int_size] words.
   Both sizes are powers of two, so 32 words is the largest block that
   fits, and every one of its words counts; 64 words (the last one's
   bit would be [1 lsl 63 = 0]) must be refused, not silently dropped. *)
let test_spatial_word_limit () =
  let s = Obs.Profile.Spatial.create ~block_bytes:128 () in
  for w = 0 to 31 do
    Obs.Profile.Spatial.on_access s false (128 + (4 * w))
  done;
  Alcotest.(check (list (pair int int))) "all 32 words counted" [ (32, 1) ]
    (Obs.Profile.Spatial.words_histogram s);
  Alcotest.(check (float 0.)) "fully used" 1.
    (Obs.Profile.Spatial.utilization s);
  let edge = Obs.Profile.Spatial.create ~word_bytes:1 ~block_bytes:32 () in
  Obs.Profile.Spatial.on_access edge false 31;
  Alcotest.(check (list (pair int int))) "last byte-word counted" [ (1, 1) ]
    (Obs.Profile.Spatial.words_histogram edge);
  List.iter
    (fun (word_bytes, block_bytes) ->
      match Obs.Profile.Spatial.create ~word_bytes ~block_bytes () with
      | _ ->
          Alcotest.failf "%d-byte blocks of %d-byte words accepted" block_bytes
            word_bytes
      | exception Invalid_argument _ -> ())
    [ (4, 256); (1, 64); (1, 128) ]

let test_occupancy () =
  let cfg =
    Memsim.Cache_config.v ~name:"t" ~sets:8 ~assoc:1 ~block_bytes:16 ()
  in
  let o = Obs.Profile.Occupancy.create ~hot_first_set:0 ~hot_sets:4 cfg in
  (* Sets cycle every 8 blocks of 16 bytes. *)
  Obs.Profile.Occupancy.on_access o false 0 (* set 0, hot *);
  Obs.Profile.Occupancy.on_access o false 16 (* set 1, hot *);
  Obs.Profile.Occupancy.on_access o false (16 * 6) (* set 6, cold *);
  Obs.Profile.Occupancy.on_access o true (16 * 8) (* wraps to set 0, hot *);
  Alcotest.(check int) "accesses" 4 (Obs.Profile.Occupancy.accesses o);
  Alcotest.(check int) "hot accesses" 3 (Obs.Profile.Occupancy.hot_accesses o);
  Alcotest.(check (float 1e-9)) "hot share" 0.75
    (Obs.Profile.Occupancy.hot_share o);
  Alcotest.(check (list int)) "set counts"
    [ 2; 1; 0; 0; 0; 0; 1; 0 ]
    (Array.to_list (Obs.Profile.Occupancy.set_counts o))

let test_profiler_nonperturbing () =
  (* Attaching the profiler must not change simulation results. *)
  let run attach =
    let m = Machine.create (Config.tiny ()) in
    let sub =
      if attach then Some (Obs.Profile.attach (Obs.Profile.for_machine m) m)
      else None
    in
    let base = Machine.reserve m ~bytes:8192 ~align:64 in
    let rng = Workload.Rng.create 3 in
    for _ = 1 to 2000 do
      let a = base + (4 * Workload.Rng.int rng 2048) in
      if Workload.Rng.int rng 4 = 0 then Machine.store32 m a 1
      else ignore (Machine.load32 m a)
    done;
    Option.iter (Machine.unsubscribe m) sub;
    let h = Hierarchy.stats (Machine.hierarchy m) in
    ( Machine.cycles m,
      Cache.misses h.Hierarchy.h_l1,
      Cache.misses h.Hierarchy.h_l2 )
  in
  Alcotest.(check (triple int int int))
    "cycles and misses identical" (run false) (run true)

(* ------------------------------------------------------------------ *)
(* Trace capture/replay against the live machine                       *)
(* ------------------------------------------------------------------ *)

let test_trace_replay_matches_live () =
  (* A load32/store32-only workload (single-block accesses, no TLB, no
     prefetching) recorded from a live machine must replay to exactly
     the live hierarchy's miss counts. *)
  let cfg = Config.tiny () in
  let m = Machine.create cfg in
  let tr = Memsim.Trace.create () in
  let sub =
    Machine.subscribe m (fun write a ->
        Memsim.Trace.record tr
          (if write then Memsim.Trace.Store else Memsim.Trace.Load)
          a)
  in
  let base = Machine.reserve m ~bytes:65536 ~align:64 in
  let rng = Workload.Rng.create 7 in
  for _ = 1 to 5000 do
    let a = base + (4 * Workload.Rng.int rng 16384) in
    if Workload.Rng.int rng 3 = 0 then Machine.store32 m a 42
    else ignore (Machine.load32 m a)
  done;
  Machine.unsubscribe m sub;
  let h = Hierarchy.stats (Machine.hierarchy m) in
  let live_l1 = Cache.misses h.Hierarchy.h_l1 in
  let live_l2 = Cache.misses h.Hierarchy.h_l2 in
  let r =
    Memsim.Trace.replay tr ~l1:cfg.Config.l1 ~l2:cfg.Config.l2
      ~latencies:cfg.Config.latencies
  in
  Alcotest.(check int) "trace length" 5000 (Memsim.Trace.length tr);
  Alcotest.(check int) "replay accesses" 5000 r.Memsim.Trace.accesses;
  Alcotest.(check int) "L1 misses match live run" live_l1
    r.Memsim.Trace.l1_misses;
  Alcotest.(check int) "L2 misses match live run" live_l2
    r.Memsim.Trace.l2_misses;
  Alcotest.(check int) "replay cycles match live machine" (Machine.cycles m)
    r.Memsim.Trace.cycles

(* ------------------------------------------------------------------ *)
(* Stats snapshots and their JSON forms                                *)
(* ------------------------------------------------------------------ *)

let test_hierarchy_stats_snapshot () =
  let m = Machine.create (Config.tiny ()) in
  let base = Machine.reserve m ~bytes:4096 ~align:64 in
  ignore (Machine.load32 m base);
  let h = Machine.hierarchy m in
  let s = Hierarchy.stats h in
  let l1_misses_before = Cache.misses s.Hierarchy.h_l1 in
  ignore (Machine.load32 m (base + 2048));
  (* The snapshot must not alias the live counters. *)
  Alcotest.(check int) "snapshot is stable" l1_misses_before
    (Cache.misses s.Hierarchy.h_l1);
  let j = Obs.Export.hierarchy_stats (Hierarchy.stats h) in
  let field l1_or_l2 name =
    Option.bind (J.member l1_or_l2 j) (fun o ->
        Option.bind (J.member name o) J.to_int)
  in
  Alcotest.(check (option int)) "l1 reads exported" (Some 2)
    (field "l1" "reads");
  Alcotest.(check bool) "l2 writebacks exported" true
    (field "l2" "writebacks" <> None);
  Alcotest.(check bool) "prefetch counters exported" true
    (Option.bind (J.member "hw_prefetches" j) J.to_int <> None)

let test_tlb_stats () =
  let m = Machine.create (Config.rsim_table1 ~tlb:true ()) in
  let base = Machine.reserve m ~bytes:(1 lsl 16) ~align:8192 in
  ignore (Machine.load32 m base);
  ignore (Machine.load32 m (base + 8192));
  ignore (Machine.load32 m base);
  match (Hierarchy.stats (Machine.hierarchy m)).Hierarchy.h_tlb with
  | None -> Alcotest.fail "TLB stats missing on a TLB-enabled machine"
  | Some t ->
      Alcotest.(check int) "hits" 1 t.Memsim.Tlb.t_hits;
      Alcotest.(check int) "misses" 2 t.Memsim.Tlb.t_misses;
      let j = Obs.Export.tlb_stats t in
      Alcotest.(check (option int)) "tlb json misses" (Some 2)
        (Option.bind (J.member "misses" j) J.to_int)

(* ------------------------------------------------------------------ *)
(* The profile pipeline's acceptance cross-check                       *)
(* ------------------------------------------------------------------ *)

let test_profile_cross_check () =
  (* ISSUE acceptance: on treeadd, the reuse-distance histogram's
     implied miss rate at the L2's capacity must sit within one point
     of the simulated L2's misses per reference. *)
  match Harness.Profiles.run "treeadd" with
  | None -> Alcotest.fail "treeadd profile missing"
  | Some r ->
      Alcotest.(check bool) "traced the whole run" true
        (r.Harness.Profiles.traced_accesses > 0);
      let diff =
        abs_float
          (r.Harness.Profiles.implied_l2_miss_rate
          -. r.Harness.Profiles.simulated_l2_miss_rate)
      in
      if diff > 0.01 then
        Alcotest.failf "implied %.4f vs simulated %.4f: |diff| %.4f > 0.01"
          r.Harness.Profiles.implied_l2_miss_rate
          r.Harness.Profiles.simulated_l2_miss_rate diff

let test_profile_json () =
  match Harness.Profiles.run "perimeter" with
  | None -> Alcotest.fail "perimeter profile missing"
  | Some r -> (
      let env =
        Obs.Export.envelope ~experiment:"profile-perimeter" ~scale:"quick"
          (Harness.Profiles.to_json r)
      in
      match J.of_string (J.to_string env) with
      | Error e -> Alcotest.failf "profile JSON does not parse: %s" e
      | Ok env' ->
          (match Obs.Export.validate_envelope env' with
          | Ok () -> ()
          | Error e -> Alcotest.failf "profile envelope invalid: %s" e);
          let reuse_accesses =
            Option.bind (J.member "data" env') (fun d ->
                Option.bind (J.member "profile" d) (fun p ->
                    Option.bind (J.member "reuse" p) (fun r ->
                        Option.bind (J.member "accesses" r) J.to_int)))
          in
          Alcotest.(check (option int)) "reuse accesses serialized"
            (Some r.Harness.Profiles.traced_accesses)
            reuse_accesses)

let tests =
  [
    ( "obs",
      [
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "json floats" `Quick test_json_floats;
        Alcotest.test_case "json accessors" `Quick test_json_accessors;
        QCheck_alcotest.to_alcotest prop_json_roundtrip;
        Alcotest.test_case "export envelope" `Quick test_envelope;
        Alcotest.test_case "reuse vs LRU-stack oracle" `Quick
          test_reuse_oracle_small;
        Alcotest.test_case "reuse oracle across Fenwick growth" `Quick
          test_reuse_oracle_growth;
        Alcotest.test_case "reuse binning" `Quick test_reuse_binned;
        Alcotest.test_case "spatial utilization" `Quick test_spatial;
        Alcotest.test_case "set occupancy" `Quick test_occupancy;
        Alcotest.test_case "profilers do not perturb the simulation" `Quick
          test_profiler_nonperturbing;
        Alcotest.test_case "trace replay matches live machine" `Quick
          test_trace_replay_matches_live;
        Alcotest.test_case "hierarchy stats snapshot and json" `Quick
          test_hierarchy_stats_snapshot;
        Alcotest.test_case "tlb stats" `Quick test_tlb_stats;
        Alcotest.test_case "profile cross-check within one point" `Quick
          test_profile_cross_check;
        Alcotest.test_case "profile json export" `Quick test_profile_json;
        Alcotest.test_case "reuse oracle across compactions" `Quick
          test_reuse_oracle_compaction;
        Alcotest.test_case "reuse footprint per distinct block" `Quick
          test_reuse_footprint;
        Alcotest.test_case "reuse: open word and word just closed" `Quick
          test_reuse_open_and_closed_word;
        Alcotest.test_case "reuse: flags at bits 0 and 31" `Quick
          test_reuse_word_edge_bits;
        Alcotest.test_case "reuse: compaction onto a word boundary" `Quick
          test_reuse_compaction_on_word_boundary;
        Alcotest.test_case "reuse: compaction grows the capacity" `Quick
          test_reuse_compaction_grows;
        QCheck_alcotest.to_alcotest prop_reuse_matches_oracle;
        Alcotest.test_case "spatial word limit" `Quick test_spatial_word_limit;
      ] );
  ]
