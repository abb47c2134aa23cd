module Bdd = Structures.Bdd

type result = {
  circuit : string;
  states : float;
  iterations : int;
  reached_nodes : int;
  total_nodes : int;
}

(* BDD variable order: present- and next-state bit [i] interleaved at
   [2i] and [2i + 1], then the inputs after all state variables. *)
let var_present i = 2 * i
let var_next i = (2 * i) + 1
let var_input ~state_bits j = (2 * state_bits) + j

let run ?unique_bits ?cache_bits ?alloc m (c : Circuit.t) =
  let s = c.Circuit.state_bits in
  let nvars = (2 * s) + c.Circuit.input_bits in
  let mgr = Bdd.create ?unique_bits ?cache_bits ?alloc ~nvars m in
  let present i = Bdd.var mgr (var_present i) in
  let input j = Bdd.var mgr (var_input ~state_bits:s j) in
  let next_fns = c.Circuit.next_state mgr ~present ~input in
  if Array.length next_fns <> s then
    invalid_arg "Reach.run: circuit arity mismatch";
  (* T = AND_i (next_i <-> f_i) *)
  let t_rel =
    Array.to_list (Array.mapi (fun i f -> (i, f)) next_fns)
    |> List.fold_left
         (fun acc (i, f) ->
           Bdd.band mgr acc (Bdd.biff mgr (Bdd.var mgr (var_next i)) f))
         (Bdd.one mgr)
  in
  (* S0 from the initial latch values *)
  let s0 =
    let acc = ref (Bdd.one mgr) in
    Array.iteri
      (fun i b ->
        let lit =
          if b then Bdd.var mgr (var_present i)
          else Bdd.nvar mgr (var_present i)
        in
        acc := Bdd.band mgr !acc lit)
      c.Circuit.initial;
    !acc
  in
  let quantified v = v mod 2 = 0 || v >= 2 * s in
  let shift_next v = v - 1 in
  let image set =
    let conj = Bdd.band mgr t_rel set in
    let projected = Bdd.exists mgr conj quantified in
    Bdd.relabel mgr projected shift_next
  in
  let rec fix reached i =
    let next = Bdd.bor mgr reached (image reached) in
    (* collect the dead intermediates of this image step, as a BDD
       package does between operations; the transition relation and the
       frontier survive *)
    ignore (Bdd.gc mgr ~roots:[ t_rel; s0; next ]);
    if next = reached then (reached, i) else fix next (i + 1)
  in
  let reached, iterations = fix s0 0 in
  let free_vars = nvars - s in
  let states = Bdd.sat_count mgr reached /. (2. ** float_of_int free_vars) in
  {
    circuit = c.Circuit.name;
    states;
    iterations;
    reached_nodes = Bdd.node_count mgr reached;
    total_nodes = Bdd.live_nodes mgr;
  }
