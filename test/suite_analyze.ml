(* Fixtures for the cclint analysis passes: every rule must both fire on
   a seeded fault and stay quiet on correct code. *)

module Machine = Memsim.Machine
module Config = Memsim.Config
module A = Memsim.Addr
module Ccmalloc = Ccsl.Ccmalloc
module Ccmorph = Ccsl.Ccmorph
module Diag = Analyze.Diag
module Shadow = Analyze.Shadow
module Lint = Analyze.Lint

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
  let lint = Lint.create m in
  Lint.set_ccmalloc lint cc;
  let alloc = Lint.wrap_allocator lint (Ccmalloc.allocator cc) in
  let a = alloc.Alloc.Allocator.alloc 16 in
  let b = alloc.Alloc.Allocator.alloc ~hint:a 16 in
  Lint.attach lint;
  (* in-bounds traffic: quiet *)
  Machine.store32 m a 7;
  Machine.store32 m (b + 12) 9;
  ignore (Machine.load32 m a);
  Alcotest.(check (list pass)) "in-bounds accesses are quiet" []
    (errors (Lint.finalize lint));
  (* overflow past the object, into the managed page: fires *)
  Machine.store32 m (a + 16) 1;
  Lint.detach lint;
  let diags = Lint.finalize lint in
  Alcotest.(check bool) "out-of-bounds fires" true
    (has ~rule:"placement/out-of-bounds" diags);
  Alcotest.(check int) "lint exit code trips" 1 (Diag.exit_code diags)

let test_oob_ignores_foreign_regions () =
  let m = mk () in
  let cc = Ccmalloc.create m in
  let lint = Lint.create m in
  Lint.set_ccmalloc lint cc;
  ignore (Lint.wrap_allocator lint (Ccmalloc.allocator cc));
  (* a bump arena the lint knows nothing about: not its business *)
  let bump = Alloc.Bump.create m in
  let foreign = Alloc.Bump.alloc bump 64 in
  Lint.attach lint;
  Machine.store32 m foreign 1;
  Machine.store32 m (foreign + 60) 2;
  Lint.detach lint;
  Alcotest.(check (list pass)) "unmanaged regions are ignored" []
    (errors (Lint.finalize lint))

(* ---------------- placement/elem-straddles-block ---------------- *)

let test_straddle_fires () =
  let m = mk () in
  let lint = Lint.create m in
  let base = Machine.reserve m ~bytes:256 ~align:64 in
  let addr = base + 56 in
  (* 16-byte element starting 56 bytes into a 64-byte block *)
  Lint.note_morph lint ~params:plain_params ~desc:fake_desc (fake_result addr);
  let diags = Lint.finalize lint in
  Alcotest.(check bool) "straddle fires" true
    (has ~rule:"placement/elem-straddles-block" diags)

let test_real_morph_is_quiet () =
  let m = mk () in
  let lint = Lint.create m in
  Lint.attach lint;
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
  Lint.detach lint;
  Alcotest.(check (list pass)) "a real colored morph lints clean" []
    (errors (Lint.finalize lint));
  Alcotest.(check bool) "the walked elements were attributed" true
    (Lint.accesses_seen lint > 0)

(* ---------------- placement/hot-outside-range ---------------- *)

(* An address in cache set 0 — inside any hot region starting at set 0.
   The tiny L2 stripe is 256 sets * 64 B = 16 KB. *)
let set0_addr m =
  let base = Machine.reserve m ~bytes:(2 * 16384) ~align:64 in
  A.align_up base 16384

let test_hot_range_fires () =
  let m = mk () in
  let lint = Lint.create m in
  let addr = set0_addr m in
  (* element sits in the hot range [0, p) but the morph claims 0 hot
     blocks: the layout and the accounting disagree *)
  let params = Ccmorph.default_params in
  Lint.note_morph lint ~struct_id:"liar" ~params ~desc:fake_desc
    (fake_result ~hot_blocks:0 addr);
  let diags = Lint.finalize lint in
  Alcotest.(check bool) "hot-range violation fires" true
    (has ~rule:"placement/hot-outside-range" diags)

(* ---------------- placement/hot-regions-overlap ---------------- *)

let test_overlap_fires_and_remorph_quiet () =
  let m = mk () in
  let base = set0_addr m in
  let params = Ccmorph.default_params in
  let morph lint id addr =
    Lint.note_morph lint ~struct_id:id ~params ~desc:fake_desc
      (fake_result ~hot_blocks:1 addr)
  in
  (* two distinct structures both color into [0, p): overlap *)
  let lint = Lint.create m in
  morph lint "s1" base;
  morph lint "s2" (base + 64);
  let diags = Lint.finalize lint in
  Alcotest.(check bool) "overlapping hot regions fire" true
    (has ~rule:"placement/hot-regions-overlap" diags);
  (* re-morphing the same structure supersedes its claim: quiet *)
  let lint = Lint.create m in
  morph lint "s1" base;
  morph lint "s1" (base + 64);
  Alcotest.(check int) "re-morph does not self-conflict" 0
    (count ~rule:"placement/hot-regions-overlap" (Lint.finalize lint))

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

let test_unmanaged_hint_lint () =
  let lint_hint hint_of =
    let m = mk () in
    let cc = Ccmalloc.create m in
    let lint = Lint.create m in
    Lint.set_ccmalloc lint cc;
    let alloc = Lint.wrap_allocator lint (Ccmalloc.allocator cc) in
    let hint = hint_of m alloc in
    ignore (alloc.Alloc.Allocator.alloc ~hint ~site:"s" 16);
    Lint.finalize lint
  in
  (* a hint into a system-malloc arena: ccmalloc cannot honour it *)
  let fire =
    lint_hint (fun m _ -> Alloc.Malloc.alloc (Alloc.Malloc.create m) 16)
  in
  Alcotest.(check bool) "unmanaged hint fires" true
    (has ~rule:"hint/unmanaged" fire);
  (* a hint at a live ccmalloc object *)
  let quiet = lint_hint (fun _ alloc -> alloc.Alloc.Allocator.alloc 16) in
  Alcotest.(check int) "managed hint is quiet" 0
    (count ~rule:"hint/unmanaged" quiet)

(* ---------------- diag plumbing ---------------- *)

let test_exit_codes_and_ordering () =
  let e = Diag.v ~rule:"placement/out-of-bounds" Diag.Error "e" in
  let w = Diag.v ~rule:"hint/unmanaged" Diag.Warn "w" in
  Alcotest.(check int) "empty is clean" 0 (Diag.exit_code []);
  Alcotest.(check int) "warnings pass by default" 0 (Diag.exit_code [ w ]);
  Alcotest.(check int) "errors trip" 1 (Diag.exit_code [ w; e ]);
  Alcotest.(check int) "fail-on warn trips on warnings" 1
    (Diag.exit_code ~fail_on:Diag.Warn [ w ]);
  Alcotest.(check int) "fail-on error passes warnings" 0
    (Diag.exit_code ~fail_on:Diag.Error [ w ]);
  Alcotest.(check bool) "no info severity" true
    (Diag.severity_of_name "info" = None);
  let sorted = List.sort Diag.order [ w; e ] in
  Alcotest.(check bool) "errors sort first" true (List.hd sorted == e)

(* ---------------- the harness runner, at test scale ---------------- *)

let mini_treeadd placement =
  Harness.Lint.run_phase
    (Harness.Experiments.treeadd { Olden.Treeadd.levels = 7; passes = 2 })
    placement

let test_phases_lint_clean () =
  List.iter
    (fun placement ->
      let p = mini_treeadd placement in
      Alcotest.(check (list pass))
        ("no errors under " ^ Olden.Common.label placement)
        []
        (errors p.Harness.Lint.ph_diags);
      Alcotest.(check bool) "the lint saw the run" true
        (p.Harness.Lint.ph_accesses > 0))
    [ Olden.Common.Ccmalloc_new_block; Olden.Common.Ccmorph_cluster_color ]

(* The lint only watches: every phase computes exactly what the same
   kernel and placement compute without it. *)
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

let test_lint_observes_only () =
  List.iter
    (fun (k : Harness.Experiments.kernel) ->
      List.iter
        (fun placement ->
          let linted =
            (Harness.Lint.run_phase k placement).Harness.Lint.ph_result
          in
          let plain =
            k.k_run ~measure_whole:true (Olden.Common.make_ctx placement)
          in
          let what = k.k_name ^ " " ^ Olden.Common.label placement in
          Alcotest.(check int) (what ^ " checksum") plain.Olden.Common.checksum
            linted.Olden.Common.checksum;
          Alcotest.(check bool) (what ^ " snapshot") true
            (plain.Olden.Common.snapshot = linted.Olden.Common.snapshot))
        [ Olden.Common.Ccmalloc_new_block; Olden.Common.Ccmorph_cluster_color ])
    [
      Harness.Experiments.treeadd { Olden.Treeadd.levels = 7; passes = 2 };
      small_health;
    ]

(* End to end at quick scale: mst's hash buckets hint at bump-allocated
   bucket cells, outside ccmalloc's pages; nothing else fires. *)
let test_mst_unmanaged_hints () =
  match Harness.Lint.run "mst" with
  | None -> Alcotest.fail "mst is a lint kernel"
  | Some r -> (
      match r.Harness.Lint.diags with
      | [ d ] ->
          Alcotest.(check string) "rule" "hint/unmanaged" d.Diag.rule;
          Alcotest.(check bool) "site" true
            (d.Diag.subject = Diag.Site "hash_chain.entry");
          Alcotest.(check (list (pair string (float 0.))))
            "evidence"
            [ ("unmanaged_hints", 2033.); ("hinted_allocations", 9052.) ]
            d.Diag.evidence
      | ds ->
          Alcotest.failf "expected one diagnostic, got %d" (List.length ds))

let test_report_json_envelope () =
  let phase = mini_treeadd Olden.Common.Ccmalloc_new_block in
  let diags = phase.Harness.Lint.ph_diags in
  let report =
    {
      Harness.Lint.bench = "treeadd";
      scale = Harness.Experiments.Quick;
      phases = [ phase ];
      diags;
      summary = Diag.summarize diags;
    }
  in
  let data = Harness.Lint.to_json report in
  let json = Obs.Export.envelope ~experiment:"lint-treeadd" data in
  (match Obs.Export.validate_envelope json with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid envelope: " ^ e));
  Alcotest.(check (option string)) "bench" (Some "treeadd")
    Obs.Json.(Option.bind (member "bench" data) to_str);
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true
        (Obs.Json.member field data <> None))
    [ "phases"; "diagnostics"; "summary" ]

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
        Alcotest.test_case "unmanaged hint" `Quick test_unmanaged_hint_lint;
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
      ] );
  ]
