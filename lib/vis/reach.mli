(** Symbolic reachability analysis — the VIS proxy's core loop.

    Builds the transition relation [T(present, next, inputs) =
    AND_i (next_i <-> f_i(present, inputs))] as a BDD, then iterates
    monolithic image computation
    [img(S) = (exists present, inputs. T /\ S)\[next := present\]]
    to a fixpoint.  All BDD node and table traffic goes through the
    simulated memory, so the run's cycle count responds to allocator
    placement exactly as VIS did in the paper. *)

type result = {
  circuit : string;
  states : float;  (** |reachable set| *)
  iterations : int;  (** image steps to the fixpoint *)
  reached_nodes : int;  (** BDD nodes in the final reached set *)
  total_nodes : int;  (** nodes ever created by the manager *)
}

val run :
  ?unique_bits:int -> ?cache_bits:int -> ?alloc:Alloc.Allocator.t ->
  Memsim.Machine.t -> Circuit.t -> result
(** Run reachability for one circuit on the given machine, drawing BDD
    nodes from [alloc] (default: a bump arena). *)
