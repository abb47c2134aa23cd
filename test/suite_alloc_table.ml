(* The allocators' int-keyed metadata table, and the allocators built on
   it checked against their Hashtbl-backed predecessors ([Alloc_ref]):
   same addresses, same errors, same statistics, on random
   alloc/free/owns sequences, including address spaces above 64 MB. *)

module Machine = Memsim.Machine
module Config = Memsim.Config
module Int_table = Alloc.Int_table
module Malloc = Alloc.Malloc
module Ccmalloc = Ccsl.Ccmalloc
module R = Alloc_ref

(* ------------------------------------------------------------------ *)
(* Int_table against Hashtbl                                           *)
(* ------------------------------------------------------------------ *)

(* Keys come from a small pool so that replaces, exchanges, removes of
   present keys and probe-run collisions are common; half the pool is
   far above 2^26 (high addresses), and negative keys are looked up but
   never bound. *)
let key_of i =
  match i mod 4 with
  | 0 -> i
  | 1 -> i * 8
  | 2 -> (1 lsl 27) + (i * 8192)
  | _ -> (1 lsl 40) + i

let prop_int_table_is_a_map =
  QCheck.Test.make ~count:200 ~name:"Int_table behaves as an int Hashtbl"
    QCheck.(
      pair (int_range 1 64)
        (list_of_size (Gen.int_range 1 500)
           (triple (int_bound 3) (int_bound 300) small_int)))
    (fun (size, ops) ->
      let t = Int_table.create size in
      let h = Hashtbl.create 16 in
      let step_ok (kind, i, v) =
        let k = key_of i in
        (match kind with
        | 0 ->
            Int_table.replace t k v;
            Hashtbl.replace h k v
        | 1 ->
            let old = Option.value (Hashtbl.find_opt h k) ~default:(-7) in
            Hashtbl.replace h k v;
            if Int_table.exchange t k v ~default:(-7) <> old then
              failwith "exchange returned the wrong previous value"
        | 2 ->
            Int_table.remove t k;
            Hashtbl.remove h k
        | _ -> Int_table.remove t (-k - 1));
        let probe = if kind = 3 then -k - 1 else k in
        Int_table.find_or t probe ~default:(-7)
        = Option.value (Hashtbl.find_opt h probe) ~default:(-7)
        && Int_table.mem t probe = Hashtbl.mem h probe
        && Int_table.length t = Hashtbl.length h
      in
      let bindings iter tbl =
        let l = ref [] in
        iter (fun k v -> l := (k, v) :: !l) tbl;
        List.sort compare !l
      in
      List.for_all step_ok ops
      && bindings Int_table.iter t = bindings Hashtbl.iter h)

let test_negative_key_rejected () =
  let t = Int_table.create 8 in
  Alcotest.check_raises "replace"
    (Invalid_argument "Int_table.replace: negative key") (fun () ->
      Int_table.replace t (-1) 0);
  Alcotest.check_raises "exchange"
    (Invalid_argument "Int_table.exchange: negative key") (fun () ->
      ignore (Int_table.exchange t (-1) 0 ~default:0));
  Alcotest.(check int) "find_or" 3 (Int_table.find_or t (-1) ~default:3);
  Alcotest.(check bool) "mem" false (Int_table.mem t (-1))

(* [map_inplace] rebinds every key, including keys that collided and
   keys that moved back when an earlier one was removed, and leaves the
   count and the lookups of absent keys alone. *)
let test_map_inplace () =
  let t = Int_table.create 8 in
  let h = Hashtbl.create 16 in
  for i = 0 to 99 do
    Int_table.replace t (key_of i) i;
    Hashtbl.replace h (key_of i) i
  done;
  for i = 0 to 24 do
    Int_table.remove t (key_of (4 * i));
    Hashtbl.remove h (key_of (4 * i))
  done;
  Int_table.map_inplace (fun k v -> (3 * v) + (k land 7)) t;
  Hashtbl.filter_map_inplace (fun k v -> Some ((3 * v) + (k land 7))) h;
  Alcotest.(check int) "length" (Hashtbl.length h) (Int_table.length t);
  for i = 0 to 99 do
    let k = key_of i in
    Alcotest.(check int)
      (Printf.sprintf "key %d" k)
      (Option.value (Hashtbl.find_opt h k) ~default:(-1))
      (Int_table.find_or t k ~default:(-1))
  done

(* ------------------------------------------------------------------ *)
(* Allocators against the Hashtbl-backed oracle                        *)
(* ------------------------------------------------------------------ *)

(* One operation of a random sequence.  [Alloc (bytes, hint, i)]: hint 0
   is none, 1 the [i]-th live object, 2 memory the allocator does not
   manage.  Every object index is taken modulo the number of
   candidates.  Sizes stop at 56 bytes, the widest object ccmalloc
   places on the tiny machine's 64-byte blocks; malloc's sequences also
   draw wider ones. *)
type op =
  | Alloc of int * int * int
  | Free of int
  | Refree of int  (* an address freed earlier: a double free, unless reused *)
  | Bogus_free of int  (* never an allocated payload *)
  | Owns of int

let gen_op ~wide =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun b h i -> Alloc (b, h, i))
            (if wide then frequency [ (9, int_range 1 56); (1, int_range 57 300) ]
             else int_range 1 56)
            (int_bound 2) nat );
        (4, map (fun i -> Free i) nat);
        (1, map (fun i -> Refree i) nat);
        (1, map (fun i -> Bogus_free i) nat);
        (1, map (fun i -> Owns i) nat);
      ])

let print_op = function
  | Alloc (b, h, i) -> Printf.sprintf "Alloc(%d,%d,%d)" b h i
  | Free i -> Printf.sprintf "Free %d" i
  | Refree i -> Printf.sprintf "Refree %d" i
  | Bogus_free i -> Printf.sprintf "Bogus_free %d" i
  | Owns i -> Printf.sprintf "Owns %d" i

let arb_ops ~wide =
  QCheck.make
    ~print:QCheck.Print.(pair bool (list print_op))
    QCheck.Gen.(pair bool (list_size (int_range 1 300) (gen_op ~wide)))

(* The allocator under test, as closures over one implementation. *)
type impl = {
  alloc : hint:int -> int -> int;
  free : int -> unit;
  owns : int -> bool;
}

let nth l i = List.nth l (i mod List.length l)

(* Runs a sequence; returns what every operation observed: an address, a
   membership bit, or [-1] for [Invalid_argument]. *)
let run_ops (impl : impl) ~foreign ops =
  let live = ref [] and freed = ref [] in
  let free_ok a =
    match impl.free a with () -> 0 | exception Invalid_argument _ -> -1
  in
  List.map
    (function
      | Alloc (bytes, h, i) ->
          let hint =
            match (h, !live) with
            | 1, (_ :: _ as l) -> nth l i
            | 2, _ -> foreign
            | _ -> 0
          in
          let a = impl.alloc ~hint bytes in
          live := a :: !live;
          a
      | Free i -> (
          match !live with
          | [] -> 0
          | l ->
              let a = nth l i in
              live := List.filter (fun x -> x <> a) l;
              freed := a :: !freed;
              free_ok a)
      | Refree i -> (
          match !freed with
          | [] -> 0
          | l ->
              let a = nth l i in
              let r = free_ok a in
              if r = 0 then live := List.filter (fun x -> x <> a) !live;
              r)
      | Bogus_free i ->
          let a =
            match !live with [] -> foreign | l -> nth l i + 4
          in
          free_ok a
      | Owns i -> (
          match !live @ !freed with
          | [] -> 0
          | l -> if impl.owns (nth l i) then 1 else 0))
    ops

(* Two identical machines, optionally with 64 MB already reserved so
   every allocator address lies above it (mst's span reaches ~67 MB). *)
let machines ~high =
  let mk () =
    let m = Machine.create (Config.tiny ()) in
    if high then ignore (Machine.reserve m ~bytes:(64 lsl 20) ~align:1024);
    let foreign = Machine.reserve m ~bytes:64 ~align:64 in
    (m, foreign)
  in
  (mk (), mk ())

let headers m addrs = List.map (fun a -> Machine.uload32 m (a - 8)) addrs

let prop_malloc_matches_hashtbl =
  QCheck.Test.make ~count:150 ~name:"malloc equals its Hashtbl-backed oracle"
    (arb_ops ~wide:true) (fun (high, ops) ->
      let (m, foreign), (mr, foreign_r) = machines ~high in
      let t = Malloc.create m and r = R.Malloc_ref.create mr in
      let a = Malloc.allocator t in
      let got =
        run_ops ~foreign
          {
            alloc = (fun ~hint:_ b -> a.Alloc.Allocator.alloc b);
            free = a.Alloc.Allocator.free;
            owns = a.Alloc.Allocator.owns;
          }
          ops
      in
      let want =
        run_ops ~foreign:foreign_r
          {
            alloc = (fun ~hint:_ b -> R.Malloc_ref.alloc r b);
            free = R.Malloc_ref.free r;
            owns = R.Malloc_ref.owns r;
          }
          ops
      in
      let s = a.Alloc.Allocator.stats () in
      let invariants f = match f () with () -> true | exception Failure _ -> false in
      got = want
      && (not high || List.for_all (fun x -> x <= 1 || x > 64 lsl 20) got)
      && s.Alloc.Allocator.allocations = r.R.Malloc_ref.allocations
      && s.Alloc.Allocator.frees = r.R.Malloc_ref.frees
      && s.Alloc.Allocator.bytes_requested = r.R.Malloc_ref.bytes_requested
      && s.Alloc.Allocator.bytes_reserved = r.R.Malloc_ref.bytes_reserved
      && Malloc.free_bytes t = R.Malloc_ref.free_bytes r
      && invariants (fun () -> Malloc.check_invariants t)
      && invariants (fun () -> R.Malloc_ref.check_invariants r)
      && Machine.cycles m = Machine.cycles mr
      && headers m (List.filter (fun x -> x > 1) got)
         = headers mr (List.filter (fun x -> x > 1) want))

let prop_ccmalloc_matches_hashtbl strategy =
  QCheck.Test.make ~count:150
    ~name:
      ("ccmalloc " ^ Ccmalloc.strategy_name strategy
     ^ " equals its Hashtbl-backed oracle")
    (arb_ops ~wide:false) (fun (high, ops) ->
      let (m, foreign), (mr, foreign_r) = machines ~high in
      let t = Ccmalloc.create ~strategy m
      and r = R.Ccmalloc_ref.create ~strategy mr in
      let a = Ccmalloc.allocator t in
      let got =
        run_ops ~foreign
          {
            alloc =
              (fun ~hint b ->
                if hint = 0 then a.Alloc.Allocator.alloc b
                else a.Alloc.Allocator.alloc ~hint b);
            free = a.Alloc.Allocator.free;
            owns = a.Alloc.Allocator.owns;
          }
          ops
      in
      let want =
        run_ops ~foreign:foreign_r
          {
            alloc = (fun ~hint b -> R.Ccmalloc_ref.alloc r ~hint b);
            free = R.Ccmalloc_ref.free r;
            owns = R.Ccmalloc_ref.owns r;
          }
          ops
      in
      let s = a.Alloc.Allocator.stats () in
      let addrs = List.filter (fun x -> x > 1) got in
      got = want
      && (not high || List.for_all (fun x -> x <= 1 || x > 64 lsl 20) got)
      && Ccmalloc.counters t = R.Ccmalloc_ref.counters r
      && s.Alloc.Allocator.allocations = r.R.Ccmalloc_ref.allocations
      && s.Alloc.Allocator.frees = r.R.Ccmalloc_ref.frees
      && s.Alloc.Allocator.bytes_requested = r.R.Ccmalloc_ref.bytes_requested
      && s.Alloc.Allocator.bytes_reserved = R.Ccmalloc_ref.bytes_reserved r
      && List.map (Ccmalloc.manages t) (foreign :: addrs)
         = List.map (R.Ccmalloc_ref.manages r) (foreign_r :: addrs)
      && Machine.cycles m = Machine.cycles mr
      && headers m addrs = headers mr addrs)

let test_invalid_frees_raise () =
  let m = Machine.create (Config.tiny ()) in
  let t = Malloc.create m in
  let x = Malloc.alloc t 24 in
  Alcotest.check_raises "malloc: interior pointer"
    (Invalid_argument "Malloc.free: not an allocated address") (fun () ->
      Malloc.free t (x + 8));
  Malloc.free t x;
  Alcotest.check_raises "malloc: double free"
    (Invalid_argument "Malloc.free: not an allocated address") (fun () ->
      Malloc.free t x);
  List.iter
    (fun strategy ->
      let c = Ccmalloc.create ~strategy m in
      let small = Ccmalloc.alloc c 24 in
      Ccmalloc.free c small;
      List.iter
        (fun (what, a) ->
          Alcotest.check_raises
            (Ccmalloc.strategy_name strategy ^ ": " ^ what)
            (Invalid_argument "Ccmalloc.free: not an allocated address")
            (fun () -> Ccmalloc.free c a))
        [ ("double free", small); ("null", Memsim.Addr.null);
          ("negative", -8) ])
    [ Ccmalloc.Closest; Ccmalloc.New_block; Ccmalloc.First_fit ]

let tests =
  [
    ( "alloc-table",
      [
        QCheck_alcotest.to_alcotest prop_int_table_is_a_map;
        Alcotest.test_case "negative keys" `Quick test_negative_key_rejected;
        Alcotest.test_case "map_inplace" `Quick test_map_inplace;
        QCheck_alcotest.to_alcotest prop_malloc_matches_hashtbl;
        QCheck_alcotest.to_alcotest
          (prop_ccmalloc_matches_hashtbl Ccmalloc.Closest);
        QCheck_alcotest.to_alcotest
          (prop_ccmalloc_matches_hashtbl Ccmalloc.New_block);
        QCheck_alcotest.to_alcotest
          (prop_ccmalloc_matches_hashtbl Ccmalloc.First_fit);
        Alcotest.test_case "invalid and double frees raise" `Quick
          test_invalid_frees_raise;
      ] );
  ]
