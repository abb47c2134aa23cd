(* Tests for the deterministic RNG and Zipf sampler. *)

module Rng = Workload.Rng
module Zipf = Workload.Zipf

let test_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create 8 in
  Alcotest.(check bool) "different seed differs" true (Rng.next a <> Rng.next c)

(* The first draws of every entry point for three seeds, recorded from
   the boxed-[int64] generator this one replaced: any change to the
   state's representation must keep every stream bit-identical (floats
   are compared as hex literals, exactly). *)
let pinned =
  [
    ( 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ],
      [ 611; 686; 522 ],
      [ 0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1; 0x1.f72bc4820e4c4p-3 ],
      [ false; true; false ],
      [ -4288767113152114532L; -1652570363629993103L ],
      -8205710985559103185L );
    ( 42,
      [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ],
      [ 941; 812; 265 ],
      [ 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1; 0x1.5c16e1dc2cf5ep-2 ],
      [ false; true; false ],
      [ -2214858861424239224L; 6525481427944763744L ],
      -8854191821003330121L );
    ( -1,
      [ -1956407806741107680L; -1612297016619662647L; 4048727598324417001L ],
      [ 460; 651; 268 ],
      [ 0x1.e29e59f004107p-1; 0x1.017690e28e7ap-2; 0x1.89fd4e102adc1p-1 ],
      [ false; true; true ],
      [ 3528799342202157278L; -2822445862745060112L ],
      -2481235938269979510L );
  ]

(* One generator per seed draws, in order: three [next], three [int] with
   bound 1000, three [float], three [bool], then a [split]; the child's
   first two [next] and the parent's next [next] close the list. *)
let test_pinned_streams () =
  List.iter
    (fun (seed, next, ints, floats, bools, child, parent) ->
      let name what = Printf.sprintf "seed %d: %s" seed what in
      let r = Rng.create seed in
      let draw n f = List.init n (fun _ -> f r) in
      Alcotest.(check (list int64)) (name "next") next (draw 3 Rng.next);
      Alcotest.(check (list int)) (name "int") ints (draw 3 (fun r -> Rng.int r 1000));
      Alcotest.(check (list (float 0.))) (name "float") floats (draw 3 Rng.float);
      Alcotest.(check (list bool)) (name "bool") bools (draw 3 Rng.bool);
      let c = Rng.split r in
      Alcotest.(check (list int64)) (name "split child") child
        (List.init 2 (fun _ -> Rng.next c));
      Alcotest.(check int64) (name "parent after split") parent (Rng.next r))
    pinned

let test_int_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_float_bounds () =
  let rng = Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_permutation () =
  let rng = Rng.create 3 in
  let p = Rng.permutation rng 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 100 (fun i -> i))
    sorted

let test_uniformity_rough () =
  let rng = Rng.create 4 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (c > 800 && c < 1200))
    buckets

let test_zipf_pmf () =
  let z = Zipf.create ~n:4 ~theta:1. in
  (* weights 1, 1/2, 1/3, 1/4 normalized *)
  let total = 1. +. 0.5 +. (1. /. 3.) +. 0.25 in
  Alcotest.(check (float 1e-9)) "pmf 0" (1. /. total) (Zipf.pmf z 0);
  Alcotest.(check (float 1e-9)) "pmf 3" (0.25 /. total) (Zipf.pmf z 3);
  let sum = List.fold_left ( +. ) 0. (List.init 4 (Zipf.pmf z)) in
  Alcotest.(check (float 1e-9)) "pmf sums to 1" 1. sum

let test_zipf_skew () =
  let z = Zipf.create ~n:100 ~theta:1. in
  let rng = Rng.create 5 in
  let hits = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let r = Zipf.sample z rng in
    hits.(r) <- hits.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 hottest" true (hits.(0) > hits.(50));
  Alcotest.(check bool) "rank 0 beats rank 5" true (hits.(0) > hits.(5))

let prop_zipf_in_range =
  QCheck.Test.make ~count:100 ~name:"zipf samples stay in range"
    QCheck.(pair (int_range 1 50) (int_range 0 10000))
    (fun (n, seed) ->
      let z = Zipf.create ~n ~theta:0.8 in
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Zipf.sample z rng in
        if v < 0 || v >= n then ok := false
      done;
      !ok)

let tests =
  [
    ( "workload",
      [
        Alcotest.test_case "rng determinism" `Quick test_determinism;
        Alcotest.test_case "rng streams pinned" `Quick test_pinned_streams;
        Alcotest.test_case "rng int bounds" `Quick test_int_bounds;
        Alcotest.test_case "rng float bounds" `Quick test_float_bounds;
        Alcotest.test_case "permutation" `Quick test_permutation;
        Alcotest.test_case "rough uniformity" `Quick test_uniformity_rough;
        Alcotest.test_case "zipf pmf" `Quick test_zipf_pmf;
        Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
        QCheck_alcotest.to_alcotest prop_zipf_in_range;
      ] );
  ]
