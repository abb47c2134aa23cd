(* Command-line driver: regenerate any of the paper's tables and figures.

   Examples:
     ccsl-cli all                      # every experiment, quick scale
     ccsl-cli fig7 --paper             # Olden benchmarks at paper-scale inputs
     ccsl-cli fig5 fig10 --seed 42     # selected experiments, reseeded
     ccsl-cli fig5 --json out.json     # pretty table + machine-readable export
     ccsl-cli profile treeadd          # reuse-distance/occupancy profiling *)

open Cmdliner

let scale_term =
  let doc =
    "Run at the paper's input sizes (slower).  Default is a quick scale \
     that preserves every qualitative result."
  in
  Arg.(value & flag & info [ "paper"; "full" ] ~doc)

let seed_term =
  let doc =
    "Reseed the workload generators.  Omitting this reproduces the \
     repository's reference streams exactly."
  in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)

let json_term =
  let doc =
    "Also write the experiment's results as versioned JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let scale_of paper =
  if paper then Harness.Experiments.Paper else Harness.Experiments.Quick

(* ------------------------------------------------------------------ *)
(* Default command: run experiments / ablations                        *)
(* ------------------------------------------------------------------ *)

let run_experiments names paper seed json_file =
  let scale = scale_of paper in
  let ppf = Format.std_formatter in
  let dispatch name =
    let payload =
      match name with
      | "ablations" -> Some (Harness.Ablations.all ?seed ppf)
      | "all" -> Some (Harness.Experiments.all ~scale ?seed ppf)
      | name -> Harness.Experiments.run_named ~scale ?seed name ppf
    in
    match payload with
    | Some p -> (name, p)
    | None ->
        Format.eprintf "unknown experiment %S (expected %s, ablations or all)@."
          name
          (String.concat ", " Harness.Experiments.names);
        exit 2
  in
  let names = if names = [] then [ "all" ] else names in
  let results = List.map dispatch names in
  match json_file with
  | None -> ()
  | Some file ->
      let experiment = String.concat "+" (List.map fst results) in
      let data =
        match results with
        | [ (_, payload) ] -> payload
        | many -> Obs.Json.Obj many
      in
      Obs.Export.write_file file
        (Obs.Export.envelope ~experiment
           ~scale:(Harness.Experiments.scale_name scale)
           ?seed data);
      Format.fprintf ppf "wrote %s@." file

let names_term =
  let doc =
    "Experiments to run: $(b,fig5), $(b,fig6), $(b,fig7), $(b,fig10), \
     $(b,table1), $(b,table2), $(b,control), $(b,ablations) or $(b,all) \
     (default)."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let run_term =
  Term.(const run_experiments $ names_term $ scale_term $ seed_term $ json_term)

(* Each experiment name is also a subcommand (cmdliner groups route the
   first positional argument to a command), so [ccsl-cli fig5 fig10]
   keeps working: the subcommand prepends its own name to any further
   positional experiment names and reuses the shared driver. *)
let experiment_cmd exp_name =
  let extra_term =
    let doc = "Additional experiments to run after $(b," ^ exp_name ^ ")." in
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let doc = Printf.sprintf "Run the %s experiment" exp_name in
  let run extra paper seed json =
    run_experiments (exp_name :: extra) paper seed json
  in
  Cmd.v
    (Cmd.info exp_name ~doc)
    Term.(const run $ extra_term $ scale_term $ seed_term $ json_term)

(* ------------------------------------------------------------------ *)
(* profile subcommand                                                  *)
(* ------------------------------------------------------------------ *)

let run_profile bench placement_str paper seed json_file =
  let scale = scale_of paper in
  let placement =
    match Olden.Common.of_string placement_str with
    | Some p -> p
    | None ->
        Format.eprintf
          "unknown placement %S (expected base, hw-prefetch, sw-prefetch, \
           first-fit, closest, new-block, cluster, cluster-color or \
           null-hint)@."
          placement_str;
        exit 2
  in
  match Harness.Profiles.run ~scale ?seed ~placement bench with
  | None ->
      Format.eprintf "unknown benchmark %S (expected %s)@." bench
        (String.concat ", " Harness.Experiments.olden_names);
      exit 2
  | Some report -> (
      Format.printf "%a@." Harness.Profiles.pp report;
      match json_file with
      | None -> ()
      | Some file ->
          Obs.Export.write_file file
            (Obs.Export.envelope
               ~experiment:("profile-" ^ bench)
               ~scale:(Harness.Experiments.scale_name scale)
               ?seed
               (Harness.Profiles.to_json report));
          Format.printf "wrote %s@." file)

let profile_cmd =
  let bench_term =
    let doc =
      "Benchmark to profile: $(b,treeadd), $(b,health), $(b,mst) or \
       $(b,perimeter)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let placement_term =
    let doc =
      "Placement configuration (Figure 7 legend code or long name): \
       $(b,base), $(b,hw-prefetch), $(b,sw-prefetch), $(b,first-fit), \
       $(b,closest), $(b,new-block), $(b,cluster), $(b,cluster-color), \
       $(b,null-hint)."
    in
    Arg.(value & opt string "base" & info [ "placement" ] ~docv:"P" ~doc)
  in
  let doc =
    "Run one Olden benchmark under the locality profilers: reuse-distance \
     histogram, block utilization, cache set-occupancy heatmap, and the \
     implied-vs-simulated miss-rate cross-check."
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const run_profile $ bench_term $ placement_term $ scale_term $ seed_term
      $ json_term)

(* ------------------------------------------------------------------ *)
(* run subcommand (whole-program static placement arms)                *)
(* ------------------------------------------------------------------ *)

let run_whole_program bench parallel seed json_file =
  match Harness.Whole_program.run ?seed ~parallel bench with
  | None ->
      Format.eprintf "unknown benchmark %S (expected %s)@." bench
        (String.concat ", " Harness.Experiments.olden_names);
      exit 2
  | Some report ->
      Format.printf "%a@." Harness.Whole_program.pp report;
      (match json_file with
      | None -> ()
      | Some file ->
          Obs.Export.write_file file
            (Obs.Export.envelope
               ~experiment:("run-" ^ bench)
               ?seed
               (Harness.Whole_program.to_json report));
          Format.printf "wrote %s@." file)

let run_cmd =
  let bench_term =
    let doc =
      "Benchmark to run: $(b,treeadd), $(b,health), $(b,mst) or \
       $(b,perimeter)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let parallel_term =
    let doc =
      "Run the placement arms as concurrent forked processes, each \
       marshalling its typed result back.  Results, including the JSON \
       export, are byte-identical to a serial run; wall time drops to \
       the slowest arm on multi-core machines."
    in
    Arg.(value & flag & info [ "parallel" ] ~doc)
  in
  let doc =
    "Run one Olden benchmark whole-program under three placement arms: \
     the no-placement base, the static Figure 7 ccmorph arm (malloc plus \
     ccmorph), and $(b,static-ccmalloc) (ccmalloc new-block plus ccmorph)."
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run_whole_program $ bench_term $ parallel_term $ seed_term
      $ json_term)

(* ------------------------------------------------------------------ *)
(* simbench subcommand (simulator self-benchmark)                      *)
(* ------------------------------------------------------------------ *)

let run_simbench n json_file =
  let report = Harness.Simbench.run ~n () in
  Format.printf "%a@." Harness.Simbench.pp report;
  match json_file with
  | None -> ()
  | Some file ->
      Obs.Export.write_file file
        (Obs.Export.envelope ~experiment:"simbench"
           (Harness.Simbench.to_json report));
      Format.printf "wrote %s@." file

let simbench_cmd =
  let n_term =
    let doc =
      "Simulated access count for the raw-loads and pointer-chase \
       workloads."
    in
    Arg.(value & opt int 2_000_000 & info [ "n" ] ~docv:"N" ~doc)
  in
  let doc =
    "Benchmark the simulator itself: accesses/sec on raw sequential \
     loads, a clustered pointer chase, and a full health benchmark arm, \
     with each workload's simulated statistics.  The committed \
     BENCH_simspeed.json is this report at the default $(b,--n); CI \
     checks the statistics exactly and the throughput with a 70% floor."
  in
  Cmd.v
    (Cmd.info "simbench" ~doc)
    Term.(const run_simbench $ n_term $ json_term)

(* ------------------------------------------------------------------ *)
(* layout subcommand (multi-level layout-engine shootout)              *)
(* ------------------------------------------------------------------ *)

let run_layout bench paper seed parallel json_file =
  let scale = scale_of paper in
  match Harness.Layout_shootout.run ~scale ?seed ~parallel bench with
  | None ->
      Format.eprintf "unknown workload %S (expected %s)@." bench
        (String.concat ", " Harness.Layout_shootout.names);
      exit 2
  | Some report -> (
      Format.printf "%a@." Harness.Layout_shootout.pp report;
      match json_file with
      | None -> ()
      | Some file ->
          Obs.Export.write_file file
            (Obs.Export.envelope
               ~experiment:("layout-" ^ bench)
               ~scale:(Harness.Experiments.scale_name scale)
               ?seed
               (Harness.Layout_shootout.to_json report));
          Format.printf "wrote %s@." file)

let layout_cmd =
  let bench_term =
    let doc =
      "Workload to race the engines on: $(b,micro) (the Figure 5 tree \
       search benchmark with the TLB modeled), $(b,health) or \
       $(b,treeadd)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let json_term =
    let doc =
      "Also write the shootout's per-level results as versioned JSON to \
       $(docv) (default $(b,layout.json) when the flag is given bare)."
    in
    Arg.(
      value
      & opt ~vopt:(Some "layout.json") (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let parallel_term =
    let doc =
      "Run the engines as concurrent forked jobs, each marshalling its \
       typed row back; results, including the JSON export, are \
       byte-identical to a serial run."
    in
    Arg.(value & flag & info [ "parallel" ] ~doc)
  in
  let doc =
    "Race every layout engine — the paper's subtree and depth-first \
     schemes, recursive van Emde Boas, and the profile-weighted engine \
     — on one workload, reporting per-level results: L1 misses, L2 \
     misses, TLB misses and cycles.  The multilevel view is what \
     distinguishes a cache-oblivious layout from the paper's L2-only \
     clustering."
  in
  Cmd.v
    (Cmd.info "layout" ~doc)
    Term.(
      const run_layout $ bench_term $ scale_term $ seed_term $ parallel_term
      $ json_term)

(* ------------------------------------------------------------------ *)
(* lint subcommand                                                     *)
(* ------------------------------------------------------------------ *)

let run_lint bench paper seed fail_on json_file =
  let scale = scale_of paper in
  let fail_on =
    match Analyze.Diag.severity_of_name fail_on with
    | Some s -> s
    | None ->
        Format.eprintf "unknown severity %S (expected error, warn or info)@."
          fail_on;
        exit 2
  in
  match Harness.Lint.run ~scale ?seed bench with
  | None ->
      Format.eprintf "unknown benchmark %S (expected %s)@." bench
        (String.concat ", " Harness.Experiments.olden_names);
      exit 2
  | Some report ->
      Format.printf "%a@." Harness.Lint.pp report;
      (match json_file with
      | None -> ()
      | Some file ->
          Obs.Export.write_file file (Harness.Lint.to_json report);
          Format.printf "wrote %s@." file);
      exit (Analyze.Diag.exit_code ~fail_on report.Harness.Lint.diags)

let lint_cmd =
  let bench_term =
    let doc =
      "Benchmark to lint: $(b,treeadd), $(b,health), $(b,mst) or \
       $(b,perimeter)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let fail_on_term =
    let doc =
      "Exit nonzero when any diagnostic is at least this severe: \
       $(b,error) (default), $(b,warn) or $(b,info)."
    in
    Arg.(value & opt string "error" & info [ "fail-on" ] ~docv:"SEV" ~doc)
  in
  let doc =
    "Run the cclint layout analysis over one Olden benchmark: the \
     placement sanitizer (shadow-heap bounds, ccmorph block packing, \
     coloring ranges, allocator counter identity), the hint-quality \
     lint, and the field-hotness advisor.  Exits nonzero if any \
     diagnostic reaches the $(b,--fail-on) severity."
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const run_lint $ bench_term $ scale_term $ seed_term $ fail_on_term
      $ json_term)

(* ------------------------------------------------------------------ *)

let cmd =
  let doc =
    "Reproduce the evaluation of 'Cache-Conscious Structure Layout' (PLDI \
     1999)"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Every table and figure of the paper's evaluation section is \
         regenerated on simulated machines: a two-level cache hierarchy \
         with the paper's exact geometries and latencies over a simulated \
         word-addressable heap.  See DESIGN.md and EXPERIMENTS.md in the \
         repository root.";
    ]
  in
  Cmd.group ~default:run_term
    (Cmd.info "ccsl-cli" ~version:"1.0.0" ~doc ~man)
    (profile_cmd :: lint_cmd :: run_cmd :: layout_cmd :: simbench_cmd
    :: List.map experiment_cmd
         (Harness.Experiments.names @ [ "ablations"; "all" ]))

let () = exit (Cmd.eval cmd)
