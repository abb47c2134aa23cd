module C = Olden.Common
module Machine = Memsim.Machine
module Config = Memsim.Config
module Ccmorph = Ccsl.Ccmorph
module Ccmalloc = Ccsl.Ccmalloc
module J = Obs.Json

(* The adaptive arm measures whole runs: its whole point is paying
   reorganization costs only when the policy approves them, so morphs
   must land inside the measured region for every arm alike. *)
type arm = {
  arm_label : string;
  arm_result : C.result;
  arm_advisor : Adapt.Advisor.stats option;
  arm_policy : Adapt.Policy.stats option;
}

type report = {
  bench : string;
  arms : arm list;  (** base, static ccmorph, adaptive *)
  recommendation : J.t option;
      (** {!Adapt.Autotune.to_json} of the adaptive arm's autotuned
          parameters — kept as JSON because it crosses the
          parallel-runner pipe verbatim *)
}

(* ------------------------------------------------------------------ *)
(* The adaptive context: advisor-wrapped ccmalloc + policy-gated morph  *)
(* ------------------------------------------------------------------ *)

type adaptive_parts = {
  ctx : C.ctx;
  advisor : Adapt.Advisor.t;
  policy : Adapt.Policy.t;
}

let adaptive_ctx ?policy_config ~morph_params () =
  let base = C.make_ctx C.Ccmalloc_new_block in
  let advisor = Adapt.Advisor.create base.C.machine base.C.alloc in
  (match base.C.cc with
  | Some cc -> Adapt.Advisor.set_ccmalloc advisor cc
  | None -> ());
  let policy = Adapt.Policy.create ?config:policy_config base.C.machine in
  Adapt.Advisor.attach advisor;
  Adapt.Policy.attach policy;
  let ctx =
    {
      base with
      C.alloc = Adapt.Advisor.allocator advisor;
      morph_params = Some morph_params;
    }
  in
  ctx.C.gate <-
    Some
      {
        C.g_should = Adapt.Policy.gate policy;
        g_note = Adapt.Policy.note_morph policy;
        g_session = Some (Ccmorph.session ());
      };
  { ctx; advisor; policy }

(* ------------------------------------------------------------------ *)
(* Parameter autotuning, validated by reduced-scale runs               *)
(* ------------------------------------------------------------------ *)

let placement_of_strategy = function
  | Ccmalloc.New_block -> C.Ccmalloc_new_block
  | Ccmalloc.Closest -> C.Ccmalloc_closest
  | Ccmalloc.First_fit -> C.Ccmalloc_first_fit

let tiny_ctx strategy morph_params =
  {
    (C.make_ctx (placement_of_strategy strategy)) with
    C.morph_params = Some morph_params;
  }

(* Short simulated validation runs: the same kernel at a scale where one
   candidate costs milliseconds.  Only treeadd and health have churn or
   passes for placement to matter at tiny scale; the other benchmarks
   get a model-only recommendation. *)
let validator bench =
  match bench with
  | "treeadd" ->
      Some
        (fun ~color_frac ~cluster ~strategy ->
          let mp = { Ccmorph.default_params with Ccmorph.cluster; color_frac } in
          let ctx = tiny_ctx strategy mp in
          let r =
            Olden.Treeadd.run
              ~params:{ Olden.Treeadd.levels = 10; passes = 2 }
              ~measure_whole:true ~ctx C.Ccmalloc_new_block
          in
          r.C.snapshot.Memsim.Cost.s_total)
  | "health" ->
      Some
        (fun ~color_frac ~cluster ~strategy ->
          let mp = { Ccmorph.default_params with Ccmorph.cluster; color_frac } in
          let ctx = tiny_ctx strategy mp in
          let r =
            Olden.Health.run
              ~params:
                {
                  Olden.Health.levels = 1;
                  steps = 60;
                  morph_interval = 20;
                  seed = 23;
                }
              ~measure_whole:true ~ctx C.Ccmalloc_new_block
          in
          r.C.snapshot.Memsim.Cost.s_total)
  | _ -> None

let model_inputs bench (ta : Olden.Treeadd.params) (h : Olden.Health.params) =
  let cfg = Config.rsim_table1 () in
  let l2 = cfg.Config.l2 in
  let sets = l2.Memsim.Cache_config.sets in
  let assoc = l2.Memsim.Cache_config.assoc in
  let block = l2.Memsim.Cache_config.block_bytes in
  match bench with
  | "treeadd" -> (Olden.Treeadd.nodes_of ta, sets, assoc, block / 16)
  | "health" ->
      (* steady-state population is workload-dependent; a village holds a
         few dozen 12-byte cells and patients *)
      (Olden.Health.villages_of h * 32, sets, assoc, block / 12)
  | "mst" -> (1 lsl 10, sets, assoc, block / 16)
  | _ -> (1 lsl 12, sets, assoc, block / 16)

let recommend bench ta h =
  let n, sets, assoc, block_elems = model_inputs bench ta h in
  Adapt.Autotune.search ?validate:(validator bench) ~n ~sets ~assoc
    ~block_elems ()

(* ------------------------------------------------------------------ *)
(* Arm payloads: the JSON each (possibly forked) arm job returns       *)
(* ------------------------------------------------------------------ *)

let advisor_stats_json (s : Adapt.Advisor.stats) =
  J.Obj
    [
      ("hints_kept", J.Int s.Adapt.Advisor.hints_kept);
      ("hints_supplied", J.Int s.Adapt.Advisor.hints_supplied);
      ("hints_overridden", J.Int s.Adapt.Advisor.hints_overridden);
      ("sites_adapted", J.Int s.Adapt.Advisor.sites_adapted);
      ("sites_backed_off", J.Int s.Adapt.Advisor.sites_backed_off);
    ]

let advisor_stats_of_json j =
  {
    Adapt.Advisor.hints_kept = Report.geti "hints_kept" j;
    hints_supplied = Report.geti "hints_supplied" j;
    hints_overridden = Report.geti "hints_overridden" j;
    sites_adapted = Report.geti "sites_adapted" j;
    sites_backed_off = Report.geti "sites_backed_off" j;
  }

let policy_stats_json (s : Adapt.Policy.stats) =
  J.Obj
    ([
       ("epochs", J.Int s.Adapt.Policy.epochs);
       ("triggers", J.Int s.Adapt.Policy.triggers);
       ("morphs", J.Int s.Adapt.Policy.morphs);
       ("last_epoch_miss_rate", J.Float s.Adapt.Policy.last_epoch_miss_rate);
     ]
    @
    match s.Adapt.Policy.target_miss_rate with
    | Some t -> [ ("target_miss_rate", J.Float t) ]
    | None -> [])

let policy_stats_of_json j =
  {
    Adapt.Policy.epochs = Report.geti "epochs" j;
    triggers = Report.geti "triggers" j;
    morphs = Report.geti "morphs" j;
    last_epoch_miss_rate = Report.getf "last_epoch_miss_rate" j;
    target_miss_rate =
      (match J.member "target_miss_rate" j with
      | Some v -> J.to_float v
      | None -> None);
  }

let arm_payload a ~recommendation =
  J.Obj
    ([
       ("arm", J.String a.arm_label);
       ("result", Report.olden_result a.arm_result);
     ]
    @ (match a.arm_advisor with
      | Some s -> [ ("advisor", advisor_stats_json s) ]
      | None -> [])
    @ (match a.arm_policy with
      | Some s -> [ ("policy", policy_stats_json s) ]
      | None -> [])
    @
    match recommendation with
    | Some r -> [ ("recommendation", r) ]
    | None -> [])

(* Returns the arm and, for the adaptive arm, the autotuner's
   recommendation JSON. *)
let arm_of_payload j =
  match Report.olden_result_of_json (Report.getobj "result" j) with
  | Error e -> failwith ("adaptive arm payload: " ^ e)
  | Ok res ->
      ( {
          arm_label = Report.gets "arm" j;
          arm_result = res;
          arm_advisor =
            Option.map advisor_stats_of_json (J.member "advisor" j);
          arm_policy = Option.map policy_stats_of_json (J.member "policy" j);
        },
        J.member "recommendation" j )

(* ------------------------------------------------------------------ *)
(* The three arms, as independent jobs for the (parallel) runner       *)
(* ------------------------------------------------------------------ *)

let arm_jobs ?seed bench =
  let _, h, _, _ = Experiments.olden_params ?seed Experiments.Quick in
  (* adaptivity needs repeated traversals to react between: the policy
     can only observe a bad layout by paying for one traversal of it, so
     the morph it triggers must have passes left to amortize over *)
  let ta = { Olden.Treeadd.levels = 14; passes = 8 } in
  Option.map
    (fun (k : Experiments.kernel) ->
      let k = if k.k_name = "treeadd" then Experiments.treeadd ta else k in
      let plain label p () =
        arm_payload
          {
            arm_label = label;
            arm_result = k.k_run ~measure_whole:true p;
            arm_advisor = None;
            arm_policy = None;
          }
          ~recommendation:None
      in
      let adaptive () =
        let rec_params = recommend bench ta h in
        let morph_params = Adapt.Autotune.morph_params rec_params in
        let policy_config =
          match bench with
          | "treeadd" ->
              (* one traversal is one epoch's worth of evidence; any
                 hesitation costs a whole slow pass *)
              Some
                {
                  Adapt.Policy.default_config with
                  Adapt.Policy.hysteresis = 1;
                  cooldown_epochs = 0;
                }
          | _ -> None
        in
        let parts = adaptive_ctx ?policy_config ~morph_params () in
        (match bench with
        | "treeadd" ->
            Adapt.Policy.set_model_target
              ~scheme:morph_params.Ccmorph.cluster parts.policy
              ~n:(Olden.Treeadd.nodes_of ta)
              ~block_elems:8 ~color_frac:morph_params.Ccmorph.color_frac
        | "health" ->
            (* the reuse histogram works at word-access granularity, a few
               accesses per 12-byte cell; the floor is an absolute "this
               layout is fine" rate rather than the tree model's m_s *)
            Adapt.Policy.set_target_rate parts.policy 0.05
        | _ -> ());
        let r =
          k.k_run ~measure_whole:true ~ctx:parts.ctx C.Ccmalloc_new_block
        in
        Adapt.Advisor.detach parts.advisor;
        Adapt.Policy.detach parts.policy;
        arm_payload
          {
            arm_label = "adaptive";
            arm_result = r;
            arm_advisor = Some (Adapt.Advisor.stats parts.advisor);
            arm_policy = Some (Adapt.Policy.stats parts.policy);
          }
          ~recommendation:(Some (Adapt.Autotune.to_json rec_params))
      in
      [
        ("base", plain "base" C.Base);
        ("static", plain "static" C.Ccmorph_cluster_color);
        ("adaptive", adaptive);
      ])
    (Experiments.olden_kernel ?seed Experiments.Quick bench)

let run ?seed ?(adapt = true) ?(parallel = false) bench =
  Option.map
    (fun jobs ->
      (* without --adapt: just the static comparison pair (the autotuner
         and adaptive arm never run) *)
      let jobs =
        if adapt then jobs
        else List.filter (fun (name, _) -> name <> "adaptive") jobs
      in
      let payloads = Parallel.run_jobs ~parallel jobs in
      let decoded = List.map (fun (_, j) -> arm_of_payload j) payloads in
      {
        bench;
        arms = List.map fst decoded;
        recommendation =
          List.fold_left
            (fun acc (_, r) -> if r <> None then r else acc)
            None decoded;
      })
    (arm_jobs ?seed bench)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp ppf r =
  let base =
    (List.find (fun a -> a.arm_label = "base") r.arms).arm_result
  in
  Format.fprintf ppf "%s: adaptive placement vs. static arms@." r.bench;
  List.iter
    (fun a ->
      let res = a.arm_result in
      Format.fprintf ppf
        "  %-9s %12d cycles  norm %5.2f  l2/ref %6.4f  checksum %d@."
        a.arm_label res.C.snapshot.Memsim.Cost.s_total
        (C.normalized res ~base)
        res.C.l2_misses_per_ref res.C.checksum;
      (match a.arm_advisor with
      | Some s ->
          Format.fprintf ppf
            "            hints: %d kept, %d supplied, %d overridden (%d \
             sites adapted, %d backed off)@."
            s.Adapt.Advisor.hints_kept s.Adapt.Advisor.hints_supplied
            s.Adapt.Advisor.hints_overridden s.Adapt.Advisor.sites_adapted
            s.Adapt.Advisor.sites_backed_off
      | None -> ());
      match a.arm_policy with
      | Some s ->
          Format.fprintf ppf
            "            policy: %d epochs, %d morphs (last epoch miss rate \
             %.4f)@."
            s.Adapt.Policy.epochs s.Adapt.Policy.morphs
            s.Adapt.Policy.last_epoch_miss_rate
      | None -> ())
    r.arms;
  match r.recommendation with
  | Some rc ->
      Format.fprintf ppf
        "  recommended: color_frac %.2f, %s clustering, %s strategy@."
        (Report.getf "color_frac" rc)
        (Report.gets "cluster" rc)
        (Report.gets "strategy" rc)
  | None -> ()

let arm_to_json base a =
  let res = a.arm_result in
  J.Obj
    ([
       ("arm", J.String a.arm_label);
       ("normalized", J.Float (C.normalized res ~base));
       ("result", Report.olden_result res);
     ]
    @ (match a.arm_advisor with
      | Some s -> [ ("advisor", advisor_stats_json s) ]
      | None -> [])
    @
    match a.arm_policy with
    | Some s -> [ ("policy", policy_stats_json s) ]
    | None -> [])

let to_json r =
  let base =
    (List.find (fun a -> a.arm_label = "base") r.arms).arm_result
  in
  J.Obj
    [
      ("bench", J.String r.bench);
      ("arms", J.List (List.map (arm_to_json base) r.arms));
    ]

let recommendation_json r = r.recommendation
