(* Simulator self-benchmark: how fast does the simulator itself run?

   Three workloads stress the per-access path from different angles —
   raw sequential loads (MRU-filter friendly, like array sweeps),
   a dependent pointer chase over a clustered ring (the access pattern
   the paper's placements produce), and a full health benchmark arm
   (every subsystem: allocator, ccmorph, timed copies).  Each runs twice
   in one process, fast path on and off ({!Memsim.Fastpath}), reporting
   real-world accesses/sec for both plus the speedup, and checking the
   simulated statistics are bit-identical between the two arms. *)

module Machine = Memsim.Machine
module Hierarchy = Memsim.Hierarchy
module Cache = Memsim.Cache
module Config = Memsim.Config
module C = Olden.Common
module J = Obs.Json

type side = {
  s_seconds : float;
  s_accesses : int;
  s_per_sec : float;
  s_cycles : int;
  s_l1_misses : int;
  s_l2_misses : int;
  s_evictions : int;
  s_writebacks : int;
}

type row = {
  w_name : string;
  w_fast : side;  (** {!Memsim.Fastpath} enabled (the default mode) *)
  w_ref : side;  (** reference paths — the pre-fastpath implementations *)
  w_speedup : float;
  w_identical : bool;  (** simulated stats bit-identical across modes *)
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
  ignore (health.k_run ~ctx C.Ccmorph_cluster_color);
  ctx.C.machine

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let measure ~fast f =
  Memsim.Fastpath.with_mode fast (fun () ->
      let t0 = Unix.gettimeofday () in
      let m = f () in
      let dt = Unix.gettimeofday () -. t0 in
      let h = Machine.hierarchy m in
      let l1 = Cache.stats (Hierarchy.l1 h) in
      let l2 = Cache.stats (Hierarchy.l2 h) in
      let accesses = Cache.accesses l1 in
      {
        s_seconds = dt;
        s_accesses = accesses;
        s_per_sec =
          (if dt > 0. then float_of_int accesses /. dt else 0.);
        s_cycles = Machine.cycles m;
        s_l1_misses = Cache.misses l1;
        s_l2_misses = Cache.misses l2;
        s_evictions = l2.Cache.evictions;
        s_writebacks = l2.Cache.writebacks;
      })

let stats_equal a b =
  a.s_accesses = b.s_accesses
  && a.s_cycles = b.s_cycles
  && a.s_l1_misses = b.s_l1_misses
  && a.s_l2_misses = b.s_l2_misses
  && a.s_evictions = b.s_evictions
  && a.s_writebacks = b.s_writebacks

let best_of reps ~fast f =
  (* wall-clock is noisy on shared machines; keep the fastest repeat of
     each arm (the usual benchmarking convention — the minimum is the
     run least disturbed by the OS).  Simulated stats are deterministic,
     so any repeat's stats serve for the bit-identity check. *)
  let rec go best k =
    if k = 0 then best
    else
      let s = measure ~fast f in
      go (if s.s_per_sec > best.s_per_sec then s else best) (k - 1)
  in
  let first = measure ~fast f in
  go first (reps - 1)

let bench_row ?(repeats = 3) name f =
  (* one untimed warm-up pass keeps code-page and minor-heap effects out
     of the first timed arm *)
  ignore (measure ~fast:true f);
  let fast = best_of repeats ~fast:true f in
  let ref_ = best_of repeats ~fast:false f in
  {
    w_name = name;
    w_fast = fast;
    w_ref = ref_;
    w_speedup =
      (if ref_.s_per_sec > 0. then fast.s_per_sec /. ref_.s_per_sec else 0.);
    w_identical = stats_equal fast ref_;
  }

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
  Format.fprintf ppf "  %-14s %12s %14s %14s %8s %s@." "workload" "accesses"
    "fast acc/s" "ref acc/s" "speedup" "stats";
  List.iter
    (fun w ->
      Format.fprintf ppf "  %-14s %12d %14.3e %14.3e %7.2fx %s@." w.w_name
        w.w_fast.s_accesses w.w_fast.s_per_sec w.w_ref.s_per_sec w.w_speedup
        (if w.w_identical then "bit-identical" else "DIVERGED"))
    r.rows

let side_to_json s =
  J.Obj
    [
      ("seconds", J.Float s.s_seconds);
      ("accesses_per_sec", J.Float s.s_per_sec);
      ("cycles", J.Int s.s_cycles);
      ("l1_misses", J.Int s.s_l1_misses);
      ("l2_misses", J.Int s.s_l2_misses);
      ("evictions", J.Int s.s_evictions);
      ("writebacks", J.Int s.s_writebacks);
    ]

let to_json r =
  J.Obj
    [
      ("machine", J.String r.machine);
      ( "rows",
        J.List
          (List.map
             (fun w ->
               J.Obj
                 [
                   ("workload", J.String w.w_name);
                   ("accesses", J.Int w.w_fast.s_accesses);
                   ("fastpath", side_to_json w.w_fast);
                   ("reference", side_to_json w.w_ref);
                   ("speedup", J.Float w.w_speedup);
                   ("bit_identical", J.Bool w.w_identical);
                 ])
             r.rows) );
    ]
