module Machine = Memsim.Machine
module Config = Memsim.Config

type placement = Base | Ccmalloc of Ccsl.Ccmalloc.strategy

let placement_name = function
  | Base -> "base (malloc)"
  | Ccmalloc s -> "ccmalloc-" ^ Ccsl.Ccmalloc.strategy_name s

type result = {
  p_label : string;
  cycles : int;
  snapshot : Memsim.Cost.snapshot;
  l1_miss_rate : float;
  l2_miss_rate : float;
  checksum : int;  (** over the reachability results only *)
  total_nodes : int;
  mult_equivalent : bool;
      (** the synthesis-verification phase proved a*b = b*a *)
}

let fold_checksum acc ~states ~iterations =
  (acc * 31) + (int_of_float states * 7) + iterations

let expected_checksum circuits =
  List.fold_left
    (fun acc (c : Circuit.t) ->
      fold_checksum acc ~states:c.Circuit.expected_states
        ~iterations:(float_of_int c.Circuit.expected_iterations |> int_of_float))
    0 circuits

let run ?(circuits = Circuit.all_default) ?(mult_bits = 8) placement =
  let m = Machine.create (Config.ultrasparc_e5000 ~tlb:true ()) in
  let alloc =
    match placement with
    | Base -> Alloc.Malloc.allocator (Alloc.Malloc.create m)
    | Ccmalloc strategy ->
        Ccsl.Ccmalloc.allocator (Ccsl.Ccmalloc.create ~strategy m)
  in
  let checksum = ref 0 in
  let total_nodes = ref 0 in
  List.iter
    (fun c ->
      (* one fresh manager per circuit, as VIS does per model, all
         drawing from the same heap *)
      let r = Reach.run ~unique_bits:10 ~cache_bits:11 ~alloc m c in
      checksum :=
        fold_checksum !checksum ~states:r.Reach.states
          ~iterations:r.Reach.iterations;
      total_nodes := !total_nodes + r.Reach.total_nodes)
    circuits;
  (* the verification half of VIS: synthesis equivalence checking over a
     large, garbage-collected (and therefore aging) BDD heap *)
  let mult =
    if mult_bits = 0 then None
    else
      Some
        (Combinational.multiplier_check ~alloc ~unique_bits:13 ~cache_bits:13
           ~bits:mult_bits m)
  in
  (match mult with
  | Some r -> total_nodes := !total_nodes + r.Combinational.total_nodes
  | None -> ());
  let h = Machine.hierarchy m in
  {
    p_label = placement_name placement;
    cycles = Machine.cycles m;
    snapshot = Machine.snapshot m;
    l1_miss_rate =
      Memsim.Cache.miss_rate (Memsim.Cache.stats (Memsim.Hierarchy.l1 h));
    l2_miss_rate =
      Memsim.Cache.miss_rate (Memsim.Cache.stats (Memsim.Hierarchy.l2 h));
    checksum = !checksum;
    total_nodes = !total_nodes;
    mult_equivalent =
      (match mult with Some r -> r.Combinational.equivalent | None -> true);
  }

let verify r circuits = r.checksum = expected_checksum circuits
