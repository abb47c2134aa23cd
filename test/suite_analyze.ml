(* Fixtures for the placement sanitizer: every rule must both fire on a
   seeded fault and stay quiet on correct code. *)

module Machine = Memsim.Machine
module Config = Memsim.Config
module A = Memsim.Addr
module Ccmalloc = Ccsl.Ccmalloc
module Ccmorph = Ccsl.Ccmorph
module Diag = Analyze.Diag
module Shadow = Analyze.Shadow

(* tiny machine: 64-byte L2 blocks, 256 L2 sets, 1024-byte pages *)
let mk () = Machine.create (Config.tiny ())

let has ~rule diags = List.exists (fun d -> d.Diag.rule = rule) diags
let count ~rule diags =
  List.length (List.filter (fun d -> d.Diag.rule = rule) diags)
let errors diags =
  List.filter (fun d -> d.Diag.severity = Diag.Error) diags

(* A consistent, non-colored fabricated morph result for one element at
   [addr]; the element's kid slots must be null (fresh memory is). *)
let fake_result ?(hot_blocks = 0) addr =
  {
    Ccmorph.new_root = addr;
    new_roots = [| addr |];
    nodes = 1;
    blocks_used = 1;
    hot_blocks;
    bytes_copied = 16;
    pages_used = 1;
  }

let fake_desc = Ccmorph.plain_desc ~elem_bytes:16 ~kid_offsets:[| 4 |]
let plain_params = { Ccmorph.default_params with Ccmorph.color = false }

(* ---------------- placement/out-of-bounds ---------------- *)

let test_oob_fires_and_quiet () =
  let m = mk () in
  let cc = Ccmalloc.create m in
  let san = Shadow.create m in
  Shadow.set_ccmalloc san cc;
  let alloc = Shadow.wrap_allocator san (Ccmalloc.allocator cc) in
  let a = alloc.Alloc.Allocator.alloc 16 in
  let b = alloc.Alloc.Allocator.alloc ~hint:a 16 in
  Shadow.attach san;
  (* in-bounds traffic: quiet *)
  Machine.store32 m a 7;
  Machine.store32 m (b + 12) 9;
  ignore (Machine.load32 m a);
  Alcotest.(check (list pass)) "in-bounds accesses are quiet" []
    (errors (Shadow.finalize san));
  (* overflow past the object, into the managed page: fires *)
  Machine.store32 m (a + 16) 1;
  Shadow.detach san;
  let diags = Shadow.finalize san in
  Alcotest.(check bool) "out-of-bounds fires" true
    (has ~rule:"placement/out-of-bounds" diags);
  Alcotest.(check int) "exit code trips" 1 (Diag.exit_code diags)

let test_oob_ignores_foreign_regions () =
  let m = mk () in
  let cc = Ccmalloc.create m in
  let san = Shadow.create m in
  Shadow.set_ccmalloc san cc;
  ignore (Shadow.wrap_allocator san (Ccmalloc.allocator cc));
  (* a bump arena the sanitizer knows nothing about: not its business *)
  let bump = Alloc.Bump.create m in
  let foreign = Alloc.Bump.alloc bump 64 in
  Shadow.attach san;
  Machine.store32 m foreign 1;
  Machine.store32 m (foreign + 60) 2;
  Shadow.detach san;
  Alcotest.(check (list pass)) "unmanaged regions are ignored" []
    (errors (Shadow.finalize san))

(* ---------------- placement/elem-straddles-block ---------------- *)

let test_straddle_fires () =
  let m = mk () in
  let san = Shadow.create m in
  let base = Machine.reserve m ~bytes:256 ~align:64 in
  let addr = base + 56 in
  (* 16-byte element starting 56 bytes into a 64-byte block *)
  Shadow.note_morph san ~params:plain_params ~desc:fake_desc (fake_result addr);
  let diags = Shadow.finalize san in
  Alcotest.(check bool) "straddle fires" true
    (has ~rule:"placement/elem-straddles-block" diags)

let test_real_morph_is_quiet () =
  let m = mk () in
  let san = Shadow.create m in
  Shadow.attach san;
  let keys = Array.init 500 (fun i -> i * 3) in
  let t =
    Structures.Bst.build m
      (Structures.Bst.Random (Workload.Rng.create 11))
      ~keys
  in
  (* colored morph, observed through the global Ccmorph hook *)
  let r =
    Ccmorph.morph m
      (Structures.Bst.desc ~elem_bytes:20)
      ~root:t.Structures.Bst.root
  in
  (* traverse the new layout with timed loads: every access must land in
     a registered element *)
  let rec walk node =
    if not (A.is_null node) then begin
      ignore (Machine.load32 m node);
      walk (Machine.load32 m (node + 4));
      walk (Machine.load32 m (node + 8))
    end
  in
  walk r.Ccmorph.new_root;
  Shadow.detach san;
  Alcotest.(check (list pass)) "a real colored morph lints clean" []
    (errors (Shadow.finalize san));
  Alcotest.(check bool) "the morph hook registered the new layout" true
    (Shadow.live san r.Ccmorph.new_root)

(* ---------------- placement/hot-outside-range ---------------- *)

(* An address in cache set 0 — inside any hot region starting at set 0.
   The tiny L2 stripe is 256 sets * 64 B = 16 KB. *)
let set0_addr m =
  let base = Machine.reserve m ~bytes:(2 * 16384) ~align:64 in
  A.align_up base 16384

let test_hot_range_fires () =
  let m = mk () in
  let san = Shadow.create m in
  let addr = set0_addr m in
  (* element sits in the hot range [0, p) but the morph claims 0 hot
     blocks: the layout and the accounting disagree *)
  let params = Ccmorph.default_params in
  Shadow.note_morph san ~struct_id:"liar" ~params ~desc:fake_desc
    (fake_result ~hot_blocks:0 addr);
  let diags = Shadow.finalize san in
  Alcotest.(check bool) "hot-range violation fires" true
    (has ~rule:"placement/hot-outside-range" diags)

(* ---------------- placement/hot-regions-overlap ---------------- *)

let test_overlap_fires_and_remorph_quiet () =
  let m = mk () in
  let base = set0_addr m in
  let params = Ccmorph.default_params in
  let morph san id addr =
    Shadow.note_morph san ~struct_id:id ~params ~desc:fake_desc
      (fake_result ~hot_blocks:1 addr)
  in
  (* two distinct structures both color into [0, p): overlap *)
  let san = Shadow.create m in
  morph san "s1" base;
  morph san "s2" (base + 64);
  let diags = Shadow.finalize san in
  Alcotest.(check bool) "overlapping hot regions fire" true
    (has ~rule:"placement/hot-regions-overlap" diags);
  (* re-morphing the same structure supersedes its claim: quiet *)
  let san = Shadow.create m in
  morph san "s1" base;
  morph san "s1" (base + 64);
  Alcotest.(check int) "re-morph does not self-conflict" 0
    (count ~rule:"placement/hot-regions-overlap" (Shadow.finalize san))

(* ---------------- placement/counter-identity ---------------- *)

let test_counter_identity () =
  let m = mk () in
  let cc = Ccmalloc.create m in
  let a = Ccmalloc.alloc cc 16 in
  let _ = Ccmalloc.alloc cc ~hint:a 16 in
  let _ = Ccmalloc.alloc cc 40 in
  Alcotest.(check (list pass)) "real counters satisfy the identity" []
    (Shadow.check_counters (Ccmalloc.counters cc));
  let good = Ccmalloc.counters cc in
  let bad = { good with Ccmalloc.c_strategy_fallbacks =
                good.Ccmalloc.c_strategy_fallbacks + 1 } in
  Alcotest.(check bool) "cooked counters are rejected" true
    (has ~rule:"placement/counter-identity" (Shadow.check_counters bad));
  let negative = { good with Ccmalloc.c_frees = -1 } in
  Alcotest.(check bool) "negative counters are rejected" true
    (has ~rule:"placement/counter-identity" (Shadow.check_counters negative))

(* ---------------- hint/unmanaged ---------------- *)

let test_unmanaged_hint () =
  let hinted hint_of =
    let m = mk () in
    let cc = Ccmalloc.create m in
    let san = Shadow.create m in
    Shadow.set_ccmalloc san cc;
    let alloc = Shadow.wrap_allocator san (Ccmalloc.allocator cc) in
    let hint = hint_of m alloc in
    ignore (alloc.Alloc.Allocator.alloc ~hint ~site:"s" 16);
    Shadow.finalize san
  in
  (* a hint into a system-malloc arena: ccmalloc cannot honour it *)
  let fire =
    hinted (fun m _ -> Alloc.Malloc.alloc (Alloc.Malloc.create m) 16)
  in
  Alcotest.(check bool) "unmanaged hint fires" true
    (has ~rule:"hint/unmanaged" fire);
  (* a hint at a live ccmalloc object *)
  let quiet = hinted (fun _ alloc -> alloc.Alloc.Allocator.alloc 16) in
  Alcotest.(check int) "managed hint is quiet" 0
    (count ~rule:"hint/unmanaged" quiet)

(* ---------------- diag plumbing ---------------- *)

let test_exit_codes_and_ordering () =
  let e = Diag.v ~rule:"placement/out-of-bounds" Diag.Error "e" in
  let w = Diag.v ~rule:"hint/unmanaged" Diag.Warn "w" in
  Alcotest.(check int) "empty is clean" 0 (Diag.exit_code []);
  Alcotest.(check int) "warnings pass by default" 0 (Diag.exit_code [ w ]);
  Alcotest.(check int) "errors trip" 1 (Diag.exit_code [ w; e ]);
  let sorted = List.sort Diag.order [ w; e ] in
  Alcotest.(check bool) "errors sort first" true (List.hd sorted == e)

(* ---------------- the live table against an interval map ---------------- *)

(* The lookup the live table replaced: an address is live when the
   object (or element) with the nearest base at or below it covers it. *)
module IMap = Map.Make (Int)

let inside map a =
  match IMap.find_last_opt (fun base -> base <= a) map with
  | Some (base, bytes) -> a < base + bytes
  | None -> false

(* Random event sequences from a model allocator whose live intervals
   are disjoint, as every real allocator's and morph's are.  Each step is
   (kind, x, y):
   0 allocate [1 + x mod 1500] bytes at a fresh payload (the tiny
     machine's pages are 1 KB, so objects straddle page boundaries);
   1 free a live object;
   2 re-allocate a freed payload, at most as large as before;
   3 free a payload that is not live (a no-op for both);
   4 register a morphed 16-byte element;
   5 skip ahead [1 + x mod 64] pages, growing the table;
   6 re-allocate a live payload in place, at most as large as before.
   After every step, both sides must agree at each live or freed
   interval's edges, at random addresses and past the table's end. *)
let prop_live_table_matches_intervals =
  QCheck.Test.make ~count:150 ~name:"live table matches an interval map"
    QCheck.(
      list_of_size
        Gen.(int_range 1 60)
        (triple (int_bound 6) (int_bound 100_000) (int_bound 100_000)))
    (fun steps ->
      let m = mk () in
      let san = Shadow.create m in
      let objects = ref IMap.empty and elems = ref IMap.empty in
      let freed = ref [] and next = ref 4096 in
      let nth l i = List.nth l (i mod List.length l) in
      let step (kind, x, y) =
        match kind with
        | 0 ->
            let payload = !next + (y mod 8) and bytes = 1 + (x mod 1500) in
            next := payload + bytes;
            Shadow.note_alloc san payload bytes;
            objects := IMap.add payload bytes !objects
        | 1 when not (IMap.is_empty !objects) ->
            let payload, bytes = nth (IMap.bindings !objects) x in
            Shadow.note_free san payload;
            objects := IMap.remove payload !objects;
            freed := (payload, bytes) :: !freed
        | 2 when !freed <> [] ->
            let ((payload, cap) as slot) = nth !freed x in
            let bytes = 1 + (y mod cap) in
            Shadow.note_alloc san payload bytes;
            objects := IMap.add payload bytes !objects;
            freed := List.filter (fun s -> s <> slot) !freed
        | 3 when !freed <> [] -> Shadow.note_free san (fst (nth !freed x))
        | 4 ->
            let addr = A.align_up !next 16 + (16 * (y mod 4)) in
            next := addr + 16;
            Shadow.note_morph san ~params:plain_params ~desc:fake_desc
              (fake_result addr);
            elems := IMap.add addr 16 !elems
        | 5 -> next := !next + ((1 + (x mod 64)) * 1024)
        | 6 when not (IMap.is_empty !objects) ->
            let payload, cap = nth (IMap.bindings !objects) x in
            let bytes = 1 + (y mod cap) in
            Shadow.note_alloc san payload bytes;
            objects := IMap.add payload bytes !objects
        | _ -> ()
      in
      let agrees a =
        Shadow.live san a = (inside !objects a || inside !elems a)
      in
      let edges (base, bytes) =
        List.for_all agrees [ base - 1; base; base + bytes - 1; base + bytes ]
      in
      List.for_all
        (fun ((_, x, y) as s) ->
          step s;
          List.for_all edges (IMap.bindings !objects)
          && List.for_all edges (IMap.bindings !elems)
          && List.for_all edges !freed
          && List.for_all agrees
               [ x mod !next; y mod !next; !next + x; !next + (1 lsl 24) ])
        steps)

(* ---------------- the sanitized run arms, at test scale ---------------- *)

module WP = Harness.Whole_program

let mini_treeadd =
  Harness.Experiments.treeadd { Olden.Treeadd.levels = 7; passes = 2 }

let small_health =
  let params =
    { Olden.Health.default_params with Olden.Health.levels = 2; steps = 50 }
  in
  {
    Harness.Experiments.k_name = "health";
    k_run =
      (fun ?measure_whole ctx ->
        Olden.Health.run ~params ?measure_whole ~ctx
          ctx.Olden.Common.placement);
  }

let test_phases_lint_clean () =
  List.iter
    (fun (k : Harness.Experiments.kernel) ->
      let r = WP.run_kernel k in
      List.iter
        (fun a ->
          Alcotest.(check (list pass))
            (k.k_name ^ ": no errors under " ^ a.WP.arm_label)
            [] (errors a.WP.arm_diags))
        r.WP.arms;
      Alcotest.(check int) (k.k_name ^ " exit code") 0 (WP.exit_code r))
    [ mini_treeadd; small_health ]

(* The sanitizer only watches: every arm computes exactly what the same
   kernel computes on the same arm's ctx without it. *)
let test_lint_observes_only () =
  List.iter
    (fun (k : Harness.Experiments.kernel) ->
      let r = WP.run_kernel k in
      List.iter2
        (fun a (label, make_ctx) ->
          let plain = k.k_run ~measure_whole:true (make_ctx ()) in
          let sanitized = a.WP.arm_result in
          let what = k.k_name ^ " " ^ label in
          Alcotest.(check string) (what ^ " arm") label a.WP.arm_label;
          Alcotest.(check int) (what ^ " checksum") plain.Olden.Common.checksum
            sanitized.Olden.Common.checksum;
          Alcotest.(check bool) (what ^ " snapshot") true
            (plain.Olden.Common.snapshot = sanitized.Olden.Common.snapshot);
          Alcotest.(check bool) (what ^ " hierarchy stats") true
            (plain = sanitized))
        r.WP.arms WP.arm_ctxs)
    [ mini_treeadd; small_health ]

(* A kernel that writes one word past a 16-byte object: inside a
   ccmalloc page (the static-ccmalloc arm) that is an out-of-bounds
   error and [ccsl-cli run]'s exit code is 1; on malloc's pages (the
   other two arms) the sanitizer has no say. *)
let test_seeded_fault_exits_1 () =
  let overflow =
    {
      Harness.Experiments.k_name = "overflow";
      k_run =
        (fun ?measure_whole:_ ctx ->
          let a = ctx.Olden.Common.alloc.Alloc.Allocator.alloc 16 in
          Machine.store32 ctx.Olden.Common.machine (a + 16) 1;
          Olden.Common.finish ctx ~checksum:0);
    }
  in
  let r = WP.run_kernel overflow in
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (a.WP.arm_label ^ " out-of-bounds")
        (a.WP.arm_label = "static-ccmalloc")
        (has ~rule:"placement/out-of-bounds" a.WP.arm_diags))
    r.WP.arms;
  Alcotest.(check int) "one error" 1 r.WP.summary.Diag.n_errors;
  Alcotest.(check int) "run exits 1" 1 (WP.exit_code r)

(* End to end at quick scale: mst's hash buckets hint at bump-allocated
   bucket cells, outside ccmalloc's pages.  Only the arm on ccmalloc
   judges hints; nothing else fires. *)
let test_mst_unmanaged_hints () =
  match WP.run "mst" with
  | None -> Alcotest.fail "mst is a run kernel"
  | Some r ->
      List.iter
        (fun a ->
          match (a.WP.arm_label, a.WP.arm_diags) with
          | "static-ccmalloc", [ d ] ->
              Alcotest.(check string) "rule" "hint/unmanaged" d.Diag.rule;
              Alcotest.(check bool) "site" true
                (d.Diag.subject = Diag.Site "hash_chain.entry");
              Alcotest.(check (list (pair string (float 0.))))
                "evidence"
                [ ("unmanaged_hints", 2033.); ("hinted_allocations", 9052.) ]
                d.Diag.evidence
          | ("base" | "static"), [] -> ()
          | label, ds ->
              Alcotest.failf "%s: unexpected %d diagnostic(s)" label
                (List.length ds))
        r.WP.arms;
      Alcotest.(check int) "warnings" 1 r.WP.summary.Diag.n_warns;
      Alcotest.(check int) "run exits 0" 0 (WP.exit_code r)

let test_report_json_envelope () =
  let r = WP.run_kernel mini_treeadd in
  let data = WP.to_json r in
  let json = Obs.Export.envelope ~experiment:"run-treeadd" ~seed:3 data in
  Alcotest.(check (option int)) "seed" (Some 3)
    Obs.Json.(Option.bind (member "seed" json) to_int);
  Alcotest.(check (option string)) "bench" (Some "treeadd")
    Obs.Json.(Option.bind (member "bench" data) to_str);
  let arms =
    match Obs.Json.member "arms" data with
    | Some (Obs.Json.List arms) -> arms
    | _ -> Alcotest.fail "arms is a list"
  in
  Alcotest.(check int) "three arms" 3 (List.length arms);
  List.iter
    (fun arm ->
      Alcotest.(check bool) "arm diagnostics present" true
        (Obs.Json.member "diagnostics" arm <> None))
    arms;
  Alcotest.(check (option int)) "summary errors" (Some 0)
    Obs.Json.(
      Option.bind (member "summary" data) (fun s ->
          Option.bind (member "errors" s) to_int))

let tests =
  [
    ( "analyze",
      [
        Alcotest.test_case "out-of-bounds fires and stays quiet" `Quick
          test_oob_fires_and_quiet;
        Alcotest.test_case "foreign regions ignored" `Quick
          test_oob_ignores_foreign_regions;
        Alcotest.test_case "element straddling a block fires" `Quick
          test_straddle_fires;
        Alcotest.test_case "real colored morph lints clean" `Quick
          test_real_morph_is_quiet;
        Alcotest.test_case "hot blocks outside the range fire" `Quick
          test_hot_range_fires;
        Alcotest.test_case "overlapping hot regions fire, re-morph quiet"
          `Quick test_overlap_fires_and_remorph_quiet;
        Alcotest.test_case "counter identity" `Quick test_counter_identity;
        Alcotest.test_case "unmanaged hint" `Quick test_unmanaged_hint;
        Alcotest.test_case "exit codes and ordering" `Quick
          test_exit_codes_and_ordering;
        Alcotest.test_case "benchmark phases lint clean" `Quick
          test_phases_lint_clean;
        Alcotest.test_case "report JSON envelope" `Quick
          test_report_json_envelope;
        Alcotest.test_case "lint phases change no result" `Quick
          test_lint_observes_only;
        Alcotest.test_case "mst: one unmanaged-hint warning" `Quick
          test_mst_unmanaged_hints;
        Alcotest.test_case "seeded fault makes run exit 1" `Quick
          test_seeded_fault_exits_1;
        QCheck_alcotest.to_alcotest prop_live_table_matches_intervals;
      ] );
  ]
