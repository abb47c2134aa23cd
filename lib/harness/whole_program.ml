module C = Olden.Common
module J = Obs.Json
module Shadow = Analyze.Shadow
module Diag = Analyze.Diag

type arm = {
  arm_label : string;
  arm_result : C.result;
  arm_diags : Diag.t list;
}

type report = { bench : string; arms : arm list; summary : Diag.summary }

(* ------------------------------------------------------------------ *)
(* The three arms, as independent thunks for {!Parallel.map}           *)
(* ------------------------------------------------------------------ *)

(* Each arm's ctx: the Figure 7 placement, plus ccmorph on ccmalloc for
   the static-ccmalloc arm. *)
let arm_ctxs =
  [
    ("base", fun () -> C.make_ctx C.Base);
    ("static", fun () -> C.make_ctx C.Ccmorph_cluster_color);
    ( "static-ccmalloc",
      fun () ->
        {
          (C.make_ctx C.Ccmalloc_new_block) with
          C.morph_params = Some Ccsl.Ccmorph.default_params;
        } );
  ]

let sanitized (k : Experiments.kernel) (label, make_ctx) =
  let ctx = make_ctx () in
  let san = Shadow.create ctx.C.machine in
  Option.iter (Shadow.set_ccmalloc san) ctx.C.cc;
  let ctx = { ctx with C.alloc = Shadow.wrap_allocator san ctx.C.alloc } in
  Shadow.attach san;
  let result =
    Fun.protect
      ~finally:(fun () -> Shadow.detach san)
      (fun () -> k.k_run ~measure_whole:true ctx)
  in
  { arm_label = label; arm_result = result; arm_diags = Shadow.finalize san }

let diags arms = List.concat_map (fun a -> a.arm_diags) arms

let run_kernel (k : Experiments.kernel) =
  let arms = Parallel.map (sanitized k) arm_ctxs in
  { bench = k.k_name; arms; summary = Diag.summarize (diags arms) }

let run ?seed bench =
  (* a whole-program measurement charges the start-up morph to the run,
     so treeadd gets several passes over a deeper tree to amortize it *)
  let ta = { Olden.Treeadd.levels = 14; passes = 8 } in
  Option.map
    (fun (k : Experiments.kernel) ->
      run_kernel (if k.k_name = "treeadd" then Experiments.treeadd ta else k))
    (Experiments.olden_kernel ?seed Experiments.Quick bench)

let exit_code r = Diag.exit_code (diags r.arms)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let base_result r =
  (List.find (fun a -> a.arm_label = "base") r.arms).arm_result

let pp ppf r =
  let base = base_result r in
  Format.fprintf ppf "%s: whole-program cycles under static placement@."
    r.bench;
  List.iter
    (fun a ->
      let res = a.arm_result in
      Format.fprintf ppf
        "  %-15s %12d cycles  norm %5.2f  l2/ref %6.4f  checksum %d@."
        a.arm_label res.C.snapshot.Memsim.Cost.s_total
        (C.normalized res ~base)
        res.C.l2_misses_per_ref res.C.checksum)
    r.arms;
  List.iter
    (fun a ->
      List.iter
        (fun d -> Format.fprintf ppf "  %-15s %a@." a.arm_label Diag.pp d)
        a.arm_diags)
    r.arms;
  Format.fprintf ppf "sanitizer: %d error(s), %d warning(s)@."
    r.summary.Diag.n_errors r.summary.Diag.n_warns

let arm_to_json base a =
  let res = a.arm_result in
  J.Obj
    [
      ("arm", J.String a.arm_label);
      ("normalized", J.Float (C.normalized res ~base));
      ("result", Report.olden_result res);
      ("diagnostics", J.List (List.map Diag.to_json a.arm_diags));
    ]

let to_json r =
  let base = base_result r in
  J.Obj
    [
      ("bench", J.String r.bench);
      ("arms", J.List (List.map (arm_to_json base) r.arms));
      ("summary", Diag.summary_to_json r.summary);
    ]
