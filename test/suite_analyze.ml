(* Fixtures for the cclint analysis passes: every rule must both fire on
   a seeded fault and stay quiet on correct code. *)

module Machine = Memsim.Machine
module Config = Memsim.Config
module A = Memsim.Addr
module Ccmalloc = Ccsl.Ccmalloc
module Ccmorph = Ccsl.Ccmorph
module Diag = Analyze.Diag
module Shadow = Analyze.Shadow
module Hintlint = Analyze.Hintlint
module Fields = Analyze.Fields
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

(* ---------------- hint/null-on-hot-path ---------------- *)

let test_null_hint_lint () =
  let fire = Hintlint.create () in
  for _ = 1 to 40 do
    Hintlint.note_alloc fire ~site:"hot.site" ~hinted:false ~hint_managed:false ()
  done;
  for i = 1 to 100 do
    Hintlint.on_access fire ~block:i ~site:(Some "hot.site") ~hint_block:(-1)
  done;
  Alcotest.(check bool) "null hints on a hot site fire" true
    (has ~rule:"hint/null-on-hot-path" (Hintlint.diags fire ~total_accesses:100));
  (* same traffic, but the site does pass hints: quiet *)
  let quiet = Hintlint.create () in
  for _ = 1 to 40 do
    Hintlint.note_alloc quiet ~site:"hot.site" ~hinted:true ~hint_managed:true ()
  done;
  for i = 1 to 100 do
    Hintlint.on_access quiet ~block:i ~site:(Some "hot.site") ~hint_block:i
  done;
  Alcotest.(check int) "hinted site is quiet" 0
    (count ~rule:"hint/null-on-hot-path" (Hintlint.diags quiet ~total_accesses:100))

(* ---------------- hint/unmanaged ---------------- *)

let test_unmanaged_hint_lint () =
  let fire = Hintlint.create () in
  Hintlint.note_alloc fire ~site:"s" ~hinted:true ~hint_managed:false ();
  Alcotest.(check bool) "unmanaged hint fires" true
    (has ~rule:"hint/unmanaged" (Hintlint.diags fire ~total_accesses:0));
  let quiet = Hintlint.create () in
  Hintlint.note_alloc quiet ~site:"s" ~hinted:true ~hint_managed:true ();
  Alcotest.(check int) "managed hint is quiet" 0
    (count ~rule:"hint/unmanaged" (Hintlint.diags quiet ~total_accesses:0))

(* ---------------- hint/low-affinity ---------------- *)

let test_low_affinity_lint () =
  let fire = Hintlint.create ~window:8 () in
  Hintlint.note_alloc fire ~site:"s" ~hinted:true ~hint_managed:true ();
  for i = 1 to 300 do
    (* the hinted block is never anywhere near the accesses *)
    Hintlint.on_access fire ~block:i ~site:(Some "s") ~hint_block:10_000
  done;
  Alcotest.(check bool) "wasted hints fire" true
    (has ~rule:"hint/low-affinity" (Hintlint.diags fire ~total_accesses:300));
  let quiet = Hintlint.create ~window:8 () in
  Hintlint.note_alloc quiet ~site:"s" ~hinted:true ~hint_managed:true ();
  for _ = 1 to 300 do
    (* accesses cluster on the hinted block: high affinity *)
    Hintlint.on_access quiet ~block:7 ~site:(Some "s") ~hint_block:7
  done;
  Alcotest.(check int) "faithful hints are quiet" 0
    (count ~rule:"hint/low-affinity" (Hintlint.diags quiet ~total_accesses:300))

(* ---------------- fields/* ---------------- *)

let test_fields_advisor () =
  let fire = Fields.create () in
  Fields.note_struct fire ~struct_id:"t" ~elem_bytes:16;
  for _ = 1 to 100 do
    Fields.on_access fire ~struct_id:"t" ~offset:0;
    Fields.on_access fire ~struct_id:"t" ~offset:12
  done;
  let diags = Fields.diags fire ~block_bytes:64 in
  Alcotest.(check bool) "dead bytes fire" true
    (has ~rule:"fields/dead-bytes" diags);
  Alcotest.(check bool) "hot-cold split fires" true
    (has ~rule:"fields/hot-cold-split" diags);
  Alcotest.(check bool) "reorder fires (hot words not contiguous)" true
    (has ~rule:"fields/reorder" diags);
  Alcotest.(check bool) "advice is informational only" true
    (List.for_all (fun d -> d.Diag.severity = Diag.Info) diags);
  (* uniformly used element: nothing to advise *)
  let quiet = Fields.create () in
  Fields.note_struct quiet ~struct_id:"t" ~elem_bytes:8;
  for _ = 1 to 100 do
    Fields.on_access quiet ~struct_id:"t" ~offset:0;
    Fields.on_access quiet ~struct_id:"t" ~offset:4
  done;
  Alcotest.(check (list pass)) "uniform element is quiet" []
    (Fields.diags quiet ~block_bytes:64);
  (* below the traffic floor: no verdict either way *)
  let thin = Fields.create () in
  Fields.note_struct thin ~struct_id:"t" ~elem_bytes:16;
  Fields.on_access thin ~struct_id:"t" ~offset:0;
  Alcotest.(check (list pass)) "too little traffic to judge" []
    (Fields.diags thin ~block_bytes:64)

(* ---------------- diag plumbing ---------------- *)

let test_exit_codes_and_ordering () =
  let e = Diag.v ~rule:"placement/out-of-bounds" Diag.Error "e" in
  let w = Diag.v ~rule:"hint/unmanaged" Diag.Warn "w" in
  let i = Diag.v ~rule:"fields/reorder" Diag.Info "i" in
  Alcotest.(check int) "empty is clean" 0 (Diag.exit_code []);
  Alcotest.(check int) "warnings pass by default" 0 (Diag.exit_code [ w; i ]);
  Alcotest.(check int) "errors trip" 1 (Diag.exit_code [ i; e ]);
  Alcotest.(check int) "fail-on warn trips on warnings" 1
    (Diag.exit_code ~fail_on:Diag.Warn [ w ]);
  Alcotest.(check int) "fail-on info trips on infos" 1
    (Diag.exit_code ~fail_on:Diag.Info [ i ]);
  let sorted = List.sort Diag.order [ i; w; e ] in
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
  let json = Harness.Lint.to_json report in
  (match Obs.Export.validate_envelope json with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid envelope: " ^ e));
  Alcotest.(check (option string)) "experiment name" (Some "lint-treeadd")
    Obs.Json.(Option.bind (member "experiment" json) to_str)

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
        Alcotest.test_case "null hint on hot path" `Quick test_null_hint_lint;
        Alcotest.test_case "unmanaged hint" `Quick test_unmanaged_hint_lint;
        Alcotest.test_case "low-affinity hint" `Quick test_low_affinity_lint;
        Alcotest.test_case "field-hotness advisor" `Quick test_fields_advisor;
        Alcotest.test_case "exit codes and ordering" `Quick
          test_exit_codes_and_ordering;
        Alcotest.test_case "benchmark phases lint clean" `Quick
          test_phases_lint_clean;
        Alcotest.test_case "report JSON envelope" `Quick
          test_report_json_envelope;
      ] );
  ]
