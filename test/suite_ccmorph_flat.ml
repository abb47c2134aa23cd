(* The flat-array ccmorph and layout engines checked against their list-
   and Hashtbl-based predecessors ([Ccmorph_ref]): the same plans on
   random trees, and on random structures in simulated memory the same
   results, copies, simulated statistics and errors.  Also:
   every engine rejects a malformed tree the same way. *)

module Machine = Memsim.Machine
module Config = Memsim.Config
module Memory = Memsim.Memory
module Hierarchy = Memsim.Hierarchy
module A = Memsim.Addr
module Ccmorph = Ccsl.Ccmorph
module Rng = Workload.Rng
module R = Ccmorph_ref

let engine_names =
  List.map (fun e -> e.Layout.Engine.name) Layout.Engine.builtins

(* ------------------------------------------------------------------ *)
(* Engine plans against the list-based engines                         *)
(* ------------------------------------------------------------------ *)

(* A random forest: node [i >= nroots] hangs below a random earlier node
   (or, one time in three, below [i - 1], which grows deep chains), and
   each node's children are shuffled so child order varies.  The ids are
   not breadth-first; [Layout.Tree.of_kids] renumbers them. *)
let random_forest rng ~n ~nroots =
  let kids = Array.make n [] in
  for i = nroots to n - 1 do
    let p = if Rng.int rng 3 = 0 then i - 1 else Rng.int rng i in
    kids.(p) <- i :: kids.(p)
  done;
  Array.map
    (fun l ->
      let a = Array.of_list l in
      Rng.shuffle rng a;
      Array.to_list a)
    kids

let prop_plans_match_reference =
  QCheck.Test.make ~count:300
    ~name:"every engine's plan equals its list-based predecessor's"
    QCheck.(
      quad (int_range 0 300) (int_range 1 9) (int_range 0 3)
        (int_bound 1_000_000))
    (fun (n, k, extra_roots, seed) ->
      let rng = Rng.create seed in
      let nroots = min n (1 + extra_roots) in
      let kids = random_forest rng ~n ~nroots in
      let roots = List.init nroots Fun.id in
      (* few distinct weights, so the weighted engine's tie-break runs *)
      let weight =
        if seed land 1 = 0 then Some (fun v -> float_of_int (v * 37 mod 5))
        else None
      in
      (* Both engines plan the same breadth-first forest, the only
         numbering a morph passes: the weighted engine breaks ties on
         id. *)
      let tree, _ = Layout.Tree.of_kids ?weight ~n ~kids:(Array.get kids) ~roots () in
      let first_kid = tree.Layout.Tree.first_kid in
      let old_tree =
        R.Tree.v ?weight:tree.Layout.Tree.weight ~n
          ~kids:(fun v ->
            List.init (first_kid.(v + 1) - first_kid.(v)) (( + ) first_kid.(v)))
          ~roots:(List.init tree.Layout.Tree.nroots Fun.id)
          ()
      in
      List.for_all
        (fun (e : Layout.Engine.t) ->
          e.Layout.Engine.plan tree ~k
          = (R.engine_of_name e.Layout.Engine.name).R.plan old_tree ~k)
        Layout.Engine.builtins)

(* ------------------------------------------------------------------ *)
(* Malformed trees                                                     *)
(* ------------------------------------------------------------------ *)

let test_malformed_rejected_alike () =
  let kids_of l v = try List.assoc v l with Not_found -> [] in
  let cases =
    [
      ("out of range", [ (0, [ 1; 7 ]) ], "Layout.Tree: node id out of range");
      ("negative", [ (0, [ 1; -1 ]) ], "Layout.Tree: node id out of range");
      ("DAG", [ (0, [ 1; 2 ]); (1, [ 2 ]) ], "Layout.Tree: node reached twice");
      ( "unreachable cycle",
        [ (0, []); (1, [ 2 ]); (2, [ 1 ]) ],
        "Layout.Tree: node 1 unreachable from roots" );
    ]
  in
  List.iter
    (fun (what, kids, msg) ->
      List.iter
        (fun (e : Layout.Engine.t) ->
          Alcotest.check_raises
            (Printf.sprintf "%s: %s" e.Layout.Engine.name what)
            (Invalid_argument msg)
            (fun () ->
              ignore
                (e.Layout.Engine.plan
                   (fst (Layout.Tree.of_kids ~n:3 ~kids:(kids_of kids) ~roots:[ 0 ] ()))
                   ~k:3)))
        Layout.Engine.builtins)
    cases

(* ------------------------------------------------------------------ *)
(* Morphs against the Hashtbl-based ccmorph                            *)
(* ------------------------------------------------------------------ *)

type case = {
  seed : int;  (* shape, payload bytes and mutations *)
  nodes : int;
  elem_bytes : int;  (* 4 .. the L2 block size *)
  slots : int;  (* kid offsets wanted, 1-4 (fewer if the element is small) *)
  parent : bool;  (* a parent-pointer slot *)
  filter : bool;  (* a kid_filter; empty slots then often hold tagged odd words *)
  weights : bool;
  forest : int;  (* 0: one tree; r > 0: r roots with nulls among them *)
  subtree : bool;  (* morph a subtree, whose root's parent is outside *)
  engine : string;
  color : int;  (* 0: off; 1-3: color_frac 0.25, 0.5, 0.75 *)
  plan_order : bool;  (* the engine's cold order overridden to Plan_order *)
  tlb : bool;  (* the E5000 with a TLB instead of the tiny machine *)
  remorph : bool;  (* three morphs, the structure growing and shrinking *)
  sparse : bool;  (* elements in 64 KB regions megabytes apart, not malloc's *)
  fault : int;  (* first try a bad morph: 1 duplicate root, 2 DAG, 3 oversized *)
}

let gen_case =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nodes = int_range 1 150 in
    let* elem_bytes = int_range 4 64 in
    let* slots = int_range 1 4 in
    let* parent = bool in
    let* filter = bool in
    let* weights = bool in
    let* forest = int_range 0 4 in
    let* subtree = map (fun i -> i = 0) (int_bound 3) in
    let* engine = oneofl engine_names in
    let* color = int_bound 3 in
    let* plan_order = bool in
    let* tlb = bool in
    let* remorph = bool in
    let* sparse = bool in
    let+ fault = map (fun i -> max 0 (i - 4)) (int_bound 7) in
    {
      seed; nodes; elem_bytes; slots; parent; filter; weights; forest;
      subtree; engine; color; plan_order; tlb; remorph; sparse; fault;
    })

let print_case c =
  Printf.sprintf
    "{seed=%d; nodes=%d; elem_bytes=%d; slots=%d; parent=%b; filter=%b; \
     weights=%b; forest=%d; subtree=%b; engine=%s; color=%d; plan_order=%b; \
     tlb=%b; remorph=%b; sparse=%b; fault=%d}"
    c.seed c.nodes c.elem_bytes c.slots c.parent c.filter c.weights c.forest
    c.subtree c.engine c.color c.plan_order c.tlb c.remorph c.sparse c.fault

(* One implementation under test. *)
type impl =
  Machine.t -> Ccmorph.desc -> Ccmorph.params -> roots:A.t array ->
  Ccmorph.result

let current ~plan_order ~engine : impl =
  let engine =
    List.find (fun e -> e.Layout.Engine.name = engine) Layout.Engine.builtins
  in
  let engine =
    if plan_order then { engine with cold_order = Layout.Engine.Plan_order }
    else engine
  in
  fun m desc params ~roots ->
    Ccmorph.morph_forest
      ~params:{ params with Ccmorph.cluster = Ccmorph.Engine engine }
      m desc ~roots

let reference ~plan_order ~engine : impl =
  let engine = R.engine_of_name engine in
  let engine =
    if plan_order then { engine with R.cold_order = Layout.Engine.Plan_order }
    else engine
  in
  fun m desc params ~roots ->
    R.Ccmorph.morph_forest ~params ~engine m desc ~roots

(* What one morph attempt leaves behind. *)
type obs = {
  outcome : (Ccmorph.result, string) result;
  snapshot : Memsim.Cost.snapshot;
  stats : Hierarchy.stats;
  reserved : int;
  copies : (A.t * string) list;  (* every new element and its bytes *)
}

(* The structure's geometry, fixed per case: kid (and parent) slots at
   shuffled word offsets. *)
let desc_of c rng ~block_bytes =
  let eb = min c.elem_bytes block_bytes in
  let words = eb / 4 in
  let offs = Array.init words (fun i -> 4 * i) in
  Rng.shuffle rng offs;
  let parent = c.parent && words >= 2 in
  let nk = max 1 (min c.slots (words - Bool.to_int parent)) in
  {
    Ccmorph.elem_bytes = eb;
    kid_offsets = Array.sub offs 0 nk;
    parent_offset = (if parent then Some offs.(nk) else None);
    kid_filter = (if c.filter then Some (fun w -> w land 1 = 0) else None);
  }

let is_ptr desc w =
  w <> 0 && match desc.Ccmorph.kid_filter with None -> true | Some f -> f w

(* A word for a slot that holds no pointer: null, or a tagged value. *)
let non_pointer rng desc =
  if desc.Ccmorph.kid_filter <> None && Rng.bool rng then
    (2 * Rng.int rng 1000) + 1
  else 0

let new_node m alloc rng desc ~parent =
  let mem = Machine.memory m in
  let eb = desc.Ccmorph.elem_bytes in
  let a = alloc eb in
  for i = 0 to eb - 1 do
    Memory.store8 mem (a + i) (Rng.int rng 256)
  done;
  Array.iter
    (fun off -> Memory.store32 mem (a + off) (non_pointer rng desc))
    desc.Ccmorph.kid_offsets;
  Option.iter
    (fun off -> Memory.store32 mem (a + off) parent)
    desc.Ccmorph.parent_offset;
  a

(* A node of [among] with a slot free for a child, and that slot. *)
let free_slot m rng desc among =
  let mem = Machine.memory m in
  let offs = desc.Ccmorph.kid_offsets in
  let n = Array.length among and s = Array.length offs in
  let found = ref None in
  if n > 0 then begin
    let p0 = Rng.int rng n and o0 = Rng.int rng s in
    for i = 0 to n - 1 do
      for j = 0 to s - 1 do
        let p = among.((p0 + i) mod n) and off = offs.((o0 + j) mod s) in
        if !found = None && not (is_ptr desc (Memory.load32 mem (p + off))) then
          found := Some (p, off)
      done
    done
  end;
  !found

let attach m alloc rng desc among =
  match free_slot m rng desc among with
  | None -> None
  | Some (p, off) ->
      let c = new_node m alloc rng desc ~parent:p in
      Memory.store32 (Machine.memory m) (p + off) c;
      Some c

(* Every element reachable from [roots], breadth-first (untimed). *)
let elements m desc roots =
  let mem = Machine.memory m in
  let q = Queue.create () and out = ref [] in
  Array.iter (fun r -> if r <> 0 then Queue.add r q) roots;
  while not (Queue.is_empty q) do
    let a = Queue.pop q in
    out := a :: !out;
    Array.iter
      (fun off ->
        let w = Memory.load32 mem (a + off) in
        if is_ptr desc w then Queue.add w q)
      desc.Ccmorph.kid_offsets
  done;
  Array.of_list (List.rev !out)

let observe m desc outcome =
  let copies =
    match outcome with
    | Error _ -> []
    | Ok r ->
        let mem = Machine.memory m in
        let eb = desc.Ccmorph.elem_bytes in
        List.map
          (fun a -> (a, String.init eb (fun i -> Char.chr (Memory.load8 mem (a + i)))))
          (Array.to_list (elements m desc r.Ccmorph.new_roots))
  in
  {
    outcome;
    snapshot = Machine.snapshot m;
    stats = Hierarchy.stats (Machine.hierarchy m);
    reserved = Machine.reserved_bytes m;
    copies;
  }

let attempt (impl : impl) m params desc roots =
  observe m desc
    (try Ok (impl m desc params ~roots)
     with Invalid_argument msg -> Error msg)

(* A sparse heap: two to four pairs of 64 KB address regions, each pair
   megabytes past the one before, elements bump-allocated from a random
   pair.  Each pair's first element sits a few words below the pair's
   middle boundary, so its elements fill the end of one region, one may
   straddle the boundary, and the rest fill the start of the next:
   discovery's visited set creates regions far apart and side by side. *)
let sparse_alloc m rng =
  let region = 65536 in
  let next =
    Array.init
      (2 + Rng.int rng 3)
      (fun _ ->
        ignore (Machine.reserve m ~bytes:((1 + Rng.int rng 8) lsl 20) ~align:4);
        Machine.reserve m ~bytes:(2 * region) ~align:region
        + region - (4 * Rng.int rng 64))
  in
  fun eb ->
    let r = Rng.int rng (Array.length next) in
    let a = next.(r) in
    next.(r) <- a + ((eb + 3) land lnot 3);
    a

(* Build the case's structure on a fresh machine, then morph it with
   [impl]: the bad morph first if the case has one, then one morph, or
   three with the structure grown and cut in between. *)
let run c impl =
  let m =
    Machine.create
      (if c.tlb then Config.ultrasparc_e5000 ~tlb:true () else Config.tiny ())
  in
  let rng = Rng.create c.seed in
  let desc = desc_of c rng ~block_bytes:(Machine.l2_block_bytes m) in
  let alloc =
    if c.sparse then sparse_alloc m rng
    else Alloc.Malloc.alloc (Alloc.Malloc.create m)
  in
  let nroots = min c.nodes (max 1 c.forest) in
  let nodes = Array.make c.nodes 0 in
  for i = 0 to c.nodes - 1 do
    nodes.(i) <-
      (if i < nroots then new_node m alloc rng desc ~parent:(non_pointer rng desc)
       else Option.get (attach m alloc rng desc (Array.sub nodes 0 i)))
  done;
  let roots =
    if c.subtree && c.nodes > nroots then
      [| nodes.(nroots + Rng.int rng (c.nodes - nroots)) |]
    else if c.forest = 0 then [| nodes.(0) |]
    else
      Array.of_list
        (List.concat_map
           (fun r -> if Rng.int rng 3 = 0 then [ A.null; r ] else [ r ])
           (Array.to_list (Array.sub nodes 0 nroots))
        @ if Rng.bool rng then [ A.null ] else [])
  in
  let params =
    {
      Ccmorph.default_params with
      Ccmorph.color = c.color > 0;
      color_frac = (match c.color with 1 -> 0.25 | 3 -> 0.75 | _ -> 0.5);
      weights =
        (if c.weights then
           Some (fun a -> float_of_int ((a lsr 3) * 2654435761 land 7))
         else None);
    }
  in
  let mem = Machine.memory m in
  let faulty =
    match c.fault with
    | 1 ->
        let r = roots.(Array.length roots - 1) in
        let r = if r = A.null then nodes.(0) else r in
        [ attempt impl m params desc (Array.append roots [| r |]) ]
    | 2 -> (
        (* an extra pointer to an element already in the morphed set *)
        let set = elements m desc roots in
        match free_slot m rng desc set with
        | None -> []
        | Some (p, off) ->
            let saved = Memory.load32 mem (p + off) in
            Memory.store32 mem (p + off) set.(Rng.int rng (Array.length set));
            let o = attempt impl m params desc roots in
            Memory.store32 mem (p + off) saved;
            [ o ])
    | 3 ->
        let big =
          { desc with Ccmorph.elem_bytes = Machine.l2_block_bytes m + 1 }
        in
        [ attempt impl m params big roots ]
    | _ -> []
  in
  let morphs = if c.remorph then 3 else 1 in
  let rec go i roots acc =
    let o = attempt impl m params desc roots in
    let acc = o :: acc in
    match o.outcome with
    | Ok r when i < morphs ->
        let roots = r.Ccmorph.new_roots in
        let els = elements m desc roots in
        (* grow: hang new elements below random current ones *)
        for _ = 1 to Rng.int rng 30 do
          ignore (attach m alloc rng desc (elements m desc roots))
        done;
        (* shrink: cut a random child pointer, dropping its subtree *)
        if Array.length els > 1 && Rng.bool rng then begin
          let p = els.(Rng.int rng (Array.length els)) in
          Array.iter
            (fun off ->
              if is_ptr desc (Memory.load32 mem (p + off)) && Rng.bool rng then
                Memory.store32 mem (p + off) A.null)
            desc.Ccmorph.kid_offsets
        end;
        go (i + 1) roots acc
    | _ -> List.rev acc
  in
  faulty @ go 1 roots []

let prop_morph_matches_reference =
  QCheck.Test.make ~count:400
    ~name:"morphs equal the Hashtbl-based ccmorph's: results, copies, stats, errors"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let plan_order = c.plan_order in
      run c (current ~plan_order ~engine:c.engine)
      = run c (reference ~plan_order ~engine:c.engine))

(* Elements at offset 65528 straddle a page boundary of simulated
   memory (malloc can place a 20-byte node there); discovery's bulk
   snapshot must read them whole. *)
let test_morph_straddling_elements () =
  let run make =
    let m = Machine.create (Config.ultrasparc_e5000 ~tlb:true ()) in
    let base = Machine.reserve m ~bytes:(4 * 65536) ~align:65536 in
    let mem = Machine.memory m in
    let desc =
      {
        Ccmorph.elem_bytes = 20;
        kid_offsets = [| 4; 8 |];
        parent_offset = Some 12;
        kid_filter = None;
      }
    in
    let root = base + 65528
    and left = base + 256
    and right = base + (2 * 65536) - 8 in
    List.iter
      (fun (a, l, r, p) ->
        for i = 0 to 19 do
          Memory.store8 mem (a + i) (a + (i * 29))
        done;
        Memory.store32 mem (a + 4) l;
        Memory.store32 mem (a + 8) r;
        Memory.store32 mem (a + 12) p)
      [ (root, left, right, 0); (left, 0, 0, root); (right, 0, 0, root) ];
    let payload a = List.init 4 (fun i -> Memory.load8 mem (a + 16 + i)) in
    let before = List.map payload [ root; left; right ] in
    let impl = make ~plan_order:false ~engine:"subtree" in
    let o = attempt impl m Ccmorph.default_params desc [| root |] in
    match o.outcome with
    | Error e -> Alcotest.fail e
    | Ok r ->
        let nr = r.Ccmorph.new_root in
        let after =
          List.map payload
            [ nr; Memory.load32 mem (nr + 4); Memory.load32 mem (nr + 8) ]
        in
        Alcotest.(check (list (list int))) "payloads copied whole" before after;
        o
  in
  Alcotest.(check bool) "same as the Hashtbl-based ccmorph" true
    (run current = run reference)

let tests =
  [
    ( "flat-morph",
      [
        QCheck_alcotest.to_alcotest prop_plans_match_reference;
        Alcotest.test_case "malformed trees fail alike in every engine" `Quick
          test_malformed_rejected_alike;
        QCheck_alcotest.to_alcotest prop_morph_matches_reference;
        Alcotest.test_case "elements straddling a page boundary" `Quick
          test_morph_straddling_elements;
      ] );
  ]
