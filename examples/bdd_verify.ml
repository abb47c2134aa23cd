(* Symbolic model checking on the simulated heap: prove properties of
   sequential circuits with the BDD package, under a cache-conscious
   allocator (the paper's VIS experiment).

     dune exec examples/bdd_verify.exe *)

module Machine = Memsim.Machine
module Bdd = Structures.Bdd

let () =
  let m = Machine.create (Memsim.Config.ultrasparc_e5000 ()) in
  let cc = Ccsl.Ccmalloc.create ~strategy:Ccsl.Ccmalloc.New_block m in
  let alloc = Ccsl.Ccmalloc.allocator cc in

  (* Reachability: every state of an 8-bit counter is reachable. *)
  let circuit = Vis.Circuit.counter 8 in
  let r = Vis.Reach.run ~alloc m circuit in
  Format.printf
    "%s: %.0f reachable states in %d image steps (expected %.0f in %d) -> %s@."
    r.Vis.Reach.circuit r.Vis.Reach.states r.Vis.Reach.iterations
    circuit.Vis.Circuit.expected_states circuit.Vis.Circuit.expected_iterations
    (if
       r.Vis.Reach.states = circuit.Vis.Circuit.expected_states
       && r.Vis.Reach.iterations = circuit.Vis.Circuit.expected_iterations
     then "PROVED"
     else "FAILED");

  (* Synthesis verification: two multiplier netlists compute the same
     function (commutativity check with canonical BDDs). *)
  let check = Vis.Combinational.multiplier_check ~alloc ~bits:6 m in
  Format.printf
    "6-bit multiplier equivalence (a*b = b*a): %s  (%d live BDD nodes)@."
    (if check.Vis.Combinational.equivalent then "PROVED" else "FAILED")
    check.Vis.Combinational.total_nodes;

  (* The allocator telemetry shows the hints at work. *)
  let c = Ccsl.Ccmalloc.counters cc in
  let pct n =
    if c.c_hinted = 0 then 0.
    else 100. *. float_of_int n /. float_of_int c.c_hinted
  in
  Format.printf
    "ccmalloc placed %.0f%% of hinted nodes in the hint's cache block and \
     %.0f%% on its page.@."
    (pct c.c_hinted_same_block) (pct c.c_hinted_same_page);
  Format.printf "total simulated cycles: %d@." (Machine.cycles m)
