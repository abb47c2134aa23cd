(* The paper's Section 2.1/5 closed forms for the expected accesses per
   entered block; the planning algorithms live in lib/layout. *)

let expected_accesses_subtree ~k = log (float_of_int (k + 1)) /. log 2.

let expected_accesses_depth_first ~k =
  2. *. (1. -. (0.5 ** float_of_int k))

let expected_accesses_veb ~k = expected_accesses_subtree ~k

let expected_accesses_weighted ~k ~p =
  if p < 0. || p > 1. then
    invalid_arg "Clustering.expected_accesses_weighted: p outside [0, 1]";
  if p >= 1. then float_of_int k
  else (1. -. (p ** float_of_int k)) /. (1. -. p)
