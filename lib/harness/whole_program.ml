module C = Olden.Common
module J = Obs.Json

type arm = { arm_label : string; arm_result : C.result }
type report = { bench : string; arms : arm list }

(* ------------------------------------------------------------------ *)
(* The three arms, as independent thunks for {!Parallel.map}           *)
(* ------------------------------------------------------------------ *)

let arm_jobs ?seed bench =
  (* a whole-program measurement charges the start-up morph to the run,
     so treeadd gets several passes over a deeper tree to amortize it *)
  let ta = { Olden.Treeadd.levels = 14; passes = 8 } in
  Option.map
    (fun (k : Experiments.kernel) ->
      let k = if k.k_name = "treeadd" then Experiments.treeadd ta else k in
      let job label ?ctx p () =
        { arm_label = label; arm_result = k.k_run ~measure_whole:true ?ctx p }
      in
      let ccmalloc_morph () =
        let ctx =
          {
            (C.make_ctx C.Ccmalloc_new_block) with
            C.morph_params = Some Ccsl.Ccmorph.default_params;
          }
        in
        job "static-ccmalloc" ~ctx C.Ccmalloc_new_block ()
      in
      [
        job "base" C.Base;
        job "static" C.Ccmorph_cluster_color;
        ccmalloc_morph;
      ])
    (Experiments.olden_kernel ?seed Experiments.Quick bench)

let run ?seed ?(parallel = false) bench =
  Option.map
    (fun jobs ->
      { bench; arms = Parallel.map ~parallel (fun job -> job ()) jobs })
    (arm_jobs ?seed bench)

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
    r.arms

let arm_to_json base a =
  let res = a.arm_result in
  J.Obj
    [
      ("arm", J.String a.arm_label);
      ("normalized", J.Float (C.normalized res ~base));
      ("result", Report.olden_result res);
    ]

let to_json r =
  let base = base_result r in
  J.Obj
    [
      ("bench", J.String r.bench);
      ("arms", J.List (List.map (arm_to_json base) r.arms));
    ]
