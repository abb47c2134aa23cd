module C = Olden.Common
module J = Obs.Json

type phase = {
  ph_placement : C.placement;
  ph_result : C.result;
  ph_accesses : int;
  ph_diags : Analyze.Diag.t list;
}

type report = {
  bench : string;
  scale : Experiments.scale;
  phases : phase list;
  diags : Analyze.Diag.t list;
  summary : Analyze.Diag.summary;
}

let run_phase (k : Experiments.kernel) placement =
  let ctx = C.make_ctx placement in
  let lint = Analyze.Lint.create ctx.C.machine in
  Option.iter (Analyze.Lint.set_ccmalloc lint) ctx.C.cc;
  let ctx =
    { ctx with C.alloc = Analyze.Lint.wrap_allocator lint ctx.C.alloc }
  in
  Analyze.Lint.attach lint;
  let result = Fun.protect ~finally:(fun () -> Analyze.Lint.detach lint)
      (fun () -> k.k_run ~measure_whole:true ~ctx placement)
  in
  {
    ph_placement = placement;
    ph_result = result;
    ph_accesses = Analyze.Lint.accesses_seen lint;
    ph_diags = Analyze.Lint.finalize lint;
  }

(* One phase per analysis family: the allocator rules need a hinted
   ccmalloc run, the morph and field rules a colored ccmorph run. *)
let phase_placements = [ C.Ccmalloc_new_block; C.Ccmorph_cluster_color ]

let run ?(scale = Experiments.Quick) ?seed name =
  Option.map
    (fun k ->
      let phases = List.map (run_phase k) phase_placements in
      let diags =
        List.sort Analyze.Diag.order
          (List.concat_map (fun p -> p.ph_diags) phases)
      in
      { bench = name; scale; phases; diags; summary = Analyze.Diag.summarize diags })
    (Experiments.olden_kernel ?seed scale name)

let pp ppf r =
  Report.section ppf
    (Printf.sprintf "cclint: %s (%s scale)" r.bench
       (Experiments.scale_name r.scale));
  List.iter
    (fun p ->
      Format.fprintf ppf "phase %-6s (%s): %d traced accesses, %d finding(s)@."
        (C.label p.ph_placement)
        (C.describe p.ph_placement)
        p.ph_accesses
        (List.length p.ph_diags))
    r.phases;
  Format.fprintf ppf "@.";
  (match r.diags with
  | [] -> Format.fprintf ppf "no findings.@."
  | diags ->
      List.iter (fun d -> Format.fprintf ppf "%a@." Analyze.Diag.pp d) diags);
  Format.fprintf ppf "@.%d error(s), %d warning(s), %d info(s)@."
    r.summary.Analyze.Diag.n_errors r.summary.Analyze.Diag.n_warns
    r.summary.Analyze.Diag.n_infos

let phase_to_json p =
  J.Obj
    [
      ("placement", J.String (C.label p.ph_placement));
      ("result", Report.olden_result p.ph_result);
      ("traced_accesses", J.Int p.ph_accesses);
      ("diagnostics", J.List (List.map Analyze.Diag.to_json p.ph_diags));
    ]

let to_json r =
  Obs.Export.envelope
    ~experiment:("lint-" ^ r.bench)
    ~scale:(Experiments.scale_name r.scale)
    (J.Obj
       [
         ("bench", J.String r.bench);
         ("phases", J.List (List.map phase_to_json r.phases));
         ("diagnostics", J.List (List.map Analyze.Diag.to_json r.diags));
         ("summary", Analyze.Diag.summary_to_json r.summary);
       ])
