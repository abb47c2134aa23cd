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
  Arg.(value & flag & info [ "paper" ] ~doc)

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
      Obs.Json.write_file file
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
(* Single-benchmark subcommands                                        *)
(* ------------------------------------------------------------------ *)

(* The steps profile, run and layout share: an unknown name exits
   2; otherwise the report is printed and, with [--json], its payload is
   written in the export envelope as experiment "<kind>-<name>". *)
let report_bench (what, names) ~kind ?scale ?seed json_file pp to_json name
    = function
  | None ->
      Format.eprintf "unknown %s %S (expected %s)@." what name
        (String.concat ", " names);
      exit 2
  | Some report ->
      Format.printf "%a@." pp report;
      Option.iter
        (fun file ->
          Obs.Json.write_file file
            (Obs.Export.envelope ~experiment:(kind ^ "-" ^ name) ?scale ?seed
               (to_json report));
          Format.printf "wrote %s@." file)
        json_file;
      report

let olden_bench = ("benchmark", Harness.Experiments.olden_names)

let bench_arg doc =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

let olden_bench_arg verb =
  bench_arg
    ("Benchmark to " ^ verb
   ^ ": $(b,treeadd), $(b,health), $(b,mst) or $(b,perimeter).")

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
  ignore
    (report_bench olden_bench ~kind:"profile"
       ~scale:(Harness.Experiments.scale_name scale)
       ?seed json_file Harness.Profiles.pp Harness.Profiles.to_json bench
       (Harness.Profiles.run ~scale ?seed ~placement bench))

let profile_cmd =
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
      const run_profile $ olden_bench_arg "profile" $ placement_term
      $ scale_term $ seed_term $ json_term)

(* ------------------------------------------------------------------ *)
(* run subcommand (whole-program static placement arms)                *)
(* ------------------------------------------------------------------ *)

let run_whole_program bench seed json_file =
  exit
    (Harness.Whole_program.exit_code
       (report_bench olden_bench ~kind:"run" ?seed json_file
          Harness.Whole_program.pp Harness.Whole_program.to_json bench
          (Harness.Whole_program.run ?seed bench)))

let run_cmd =
  let doc =
    "Run one Olden benchmark whole-program under three placement arms: \
     the no-placement base, the static Figure 7 ccmorph arm (malloc plus \
     ccmorph), and $(b,static-ccmalloc) (ccmalloc new-block plus ccmorph). \
     Every arm runs under the placement sanitizer (shadow-heap bounds, \
     ccmorph block packing, coloring ranges, allocator counter identity, \
     and a per-site count of ccmalloc hints that point outside its \
     pages); the command exits 1 if any arm reports an error. The arms \
     run as concurrent forked processes when the machine has more than \
     one core."
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"an arm's placement sanitizer reported an error."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "run" ~doc ~exits)
    Term.(
      const run_whole_program $ olden_bench_arg "run" $ seed_term $ json_term)

(* ------------------------------------------------------------------ *)
(* simbench subcommand (simulator self-benchmark)                      *)
(* ------------------------------------------------------------------ *)

let run_simbench n json_file =
  let report = Harness.Simbench.run ~n () in
  Format.printf "%a@." Harness.Simbench.pp report;
  match json_file with
  | None -> ()
  | Some file ->
      Obs.Json.write_file file
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

let run_layout bench paper seed json_file =
  let scale = scale_of paper in
  ignore
    (report_bench
       ("workload", Harness.Layout_shootout.names)
       ~kind:"layout"
       ~scale:(Harness.Experiments.scale_name scale)
       ?seed json_file Harness.Layout_shootout.pp
       Harness.Layout_shootout.to_json bench
       (Harness.Layout_shootout.run ~scale ?seed bench))

let layout_cmd =
  let bench_term =
    bench_arg
      "Workload to race the engines on: $(b,micro) (the Figure 5 tree \
       search benchmark with the TLB modeled), $(b,health) or \
       $(b,treeadd)."
  in
  let doc =
    "Race every layout engine — the paper's subtree and depth-first \
     schemes, recursive van Emde Boas, and the profile-weighted engine \
     — on one workload, reporting per-level results: L1 misses, L2 \
     misses, TLB misses and cycles.  The multilevel view is what \
     distinguishes a cache-oblivious layout from the paper's L2-only \
     clustering.  The engines run as concurrent forked processes when \
     the machine has more than one core."
  in
  Cmd.v
    (Cmd.info "layout" ~doc)
    Term.(const run_layout $ bench_term $ scale_term $ seed_term $ json_term)

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
    (profile_cmd :: run_cmd :: layout_cmd :: simbench_cmd
    :: List.map experiment_cmd
         (Harness.Experiments.names @ [ "ablations"; "all" ]))

let () = exit (Cmd.eval cmd)
