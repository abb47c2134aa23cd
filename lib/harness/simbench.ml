(* Simulator self-benchmark: how fast does the simulator itself run?

   Three workloads stress the per-access path from different angles —
   raw sequential loads (L1-hit dominated, like array sweeps),
   a dependent pointer chase over a clustered ring (the access pattern
   the paper's placements produce), and a full health benchmark arm
   (every subsystem: allocator, ccmorph, timed copies).  Each row
   reports real-world accesses/sec plus the simulated statistics.
   [ccsl-cli simbench --json BENCH_simspeed.json] writes the committed
   reference, against which CI checks the statistics exactly and the
   throughput with a 70% floor. *)

module Machine = Memsim.Machine
module Hierarchy = Memsim.Hierarchy
module Cache = Memsim.Cache
module Config = Memsim.Config
module C = Olden.Common
module J = Obs.Json

type row = {
  w_name : string;
  w_seconds : float;
  w_accesses : int;
  w_per_sec : float;
  w_cycles : int;
  w_l1_misses : int;
  w_l2_misses : int;
  w_evictions : int;
  w_writebacks : int;
}

type report = { machine : string; rows : row list }

(* ------------------------------------------------------------------ *)
(* Workloads: each returns the machine it ran on                       *)
(* ------------------------------------------------------------------ *)

let raw_loads n () =
  let m = Machine.create (Config.rsim_table1 ()) in
  (* sequential sweep over 256 KB: 31/32 same-block accesses, the rest
     L1 misses that hit L2 after the first pass *)
  let words = 65536 in
  let mask = words - 1 in
  let base = Machine.reserve m ~bytes:(words * 4) ~align:128 in
  let acc = ref 0 in
  for k = 0 to n - 1 do
    acc := !acc + Machine.load32 m (base + ((k land mask) * 4))
  done;
  ignore !acc;
  m

let pointer_chase n () =
  let m = Machine.create (Config.rsim_table1 ()) in
  (* clustered ring: 16-byte nodes laid out consecutively, 8 per L2
     block — the layout ccmorph produces.  64 KB working set: larger
     than the 16 KB L1, resident in the 256 KB L2.  Each visit reads the
     node's data word and then follows [next], like the Olden traversal
     kernels. *)
  let nodes = 4096 in
  let stride = 16 in
  let base = Machine.reserve m ~bytes:(nodes * stride) ~align:128 in
  for i = 0 to nodes - 1 do
    let node = base + (i * stride) in
    Machine.ustore32 m node (base + ((i + 1) mod nodes * stride));
    Machine.ustore32 m (node + 4) i
  done;
  Machine.cold_start m;
  let p = ref base in
  let acc = ref 0 in
  for _ = 1 to n / 2 do
    acc := !acc + Machine.load32 m (!p + 4);
    p := Machine.load_ptr m !p
  done;
  ignore !p;
  ignore !acc;
  m

let health_arm () =
  let health =
    Option.get (Experiments.olden_kernel Experiments.Quick "health")
  in
  let ctx = C.make_ctx C.Ccmorph_cluster_color in
  ignore (health.k_run ctx);
  ctx.C.machine

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let measure name f =
  let t0 = Unix.gettimeofday () in
  let m = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let h = Machine.hierarchy m in
  let l1 = Cache.stats (Hierarchy.l1 h) in
  let l2 = Cache.stats (Hierarchy.l2 h) in
  let accesses = Cache.accesses l1 in
  {
    w_name = name;
    w_seconds = dt;
    w_accesses = accesses;
    w_per_sec = (if dt > 0. then float_of_int accesses /. dt else 0.);
    w_cycles = Machine.cycles m;
    w_l1_misses = Cache.misses l1;
    w_l2_misses = Cache.misses l2;
    w_evictions = l2.Cache.evictions;
    w_writebacks = l2.Cache.writebacks;
  }

let bench_row ?(repeats = 3) name f =
  (* one untimed warm-up pass keeps code-page and minor-heap effects out
     of the first timed repeat; wall-clock is noisy on shared machines,
     so keep the fastest repeat (the usual benchmarking convention — the
     minimum is the run least disturbed by the OS).  Simulated stats are
     deterministic, so every repeat reports the same ones. *)
  ignore (measure name f);
  let rec go best k =
    if k = 0 then best
    else
      let s = measure name f in
      go (if s.w_per_sec > best.w_per_sec then s else best) (k - 1)
  in
  go (measure name f) (repeats - 1)

let run ?(n = 2_000_000) ?(repeats = 3) () =
  {
    machine = (Config.rsim_table1 ()).Config.name;
    rows =
      [
        bench_row ~repeats "raw-loads" (raw_loads n);
        bench_row ~repeats "pointer-chase" (pointer_chase n);
        bench_row ~repeats "health-arm" health_arm;
      ];
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp ppf r =
  Format.fprintf ppf "simulator self-benchmark (%s)@." r.machine;
  Format.fprintf ppf "  %-14s %12s %14s %12s %10s %10s@." "workload"
    "accesses" "acc/s" "cycles" "L1 misses" "L2 misses";
  List.iter
    (fun w ->
      Format.fprintf ppf "  %-14s %12d %14.3e %12d %10d %10d@." w.w_name
        w.w_accesses w.w_per_sec w.w_cycles w.w_l1_misses w.w_l2_misses)
    r.rows

let row_to_json w =
  J.Obj
    [
      ("workload", J.String w.w_name);
      ("accesses", J.Int w.w_accesses);
      ("seconds", J.Float w.w_seconds);
      ("accesses_per_sec", J.Float w.w_per_sec);
      ("cycles", J.Int w.w_cycles);
      ("l1_misses", J.Int w.w_l1_misses);
      ("l2_misses", J.Int w.w_l2_misses);
      ("evictions", J.Int w.w_evictions);
      ("writebacks", J.Int w.w_writebacks);
    ]

let to_json r =
  J.Obj
    [
      ("machine", J.String r.machine);
      ("rows", J.List (List.map row_to_json r.rows));
    ]
