type latencies = Memsim.Hierarchy.latencies

let log2 x = log x /. log 2.

let miss_rate ~d ~k ~r =
  if d <= 0. then invalid_arg "Model.miss_rate: d <= 0";
  if k < 1. then invalid_arg "Model.miss_rate: k < 1";
  if r < 0. || r > d then invalid_arg "Model.miss_rate: r outside [0, d]";
  (1. -. (r /. d)) /. k

let memory_access_time (lat : latencies) ~ml1 ~ml2 ~refs =
  let th = float_of_int lat.Memsim.Hierarchy.l1_hit in
  let tm1 = float_of_int lat.l1_miss in
  let tm2 = float_of_int lat.l2_miss in
  (th +. (ml1 *. tm1) +. (ml1 *. ml2 *. tm2)) *. refs

let speedup lat ~naive ~cc =
  let m1n, m2n = naive and m1c, m2c = cc in
  memory_access_time lat ~ml1:m1n ~ml2:m2n ~refs:1.
  /. memory_access_time lat ~ml1:m1c ~ml2:m2c ~refs:1.

let worst_case_naive = (1., 1.)

module Ctree = struct
  let d ~n = log2 (float_of_int (n + 1))
  let k ~block_elems = log2 (float_of_int (block_elems + 1))

  let r_s ~sets ~assoc ~block_elems ~color_frac =
    log2
      ((color_frac *. float_of_int (sets * block_elems * assoc)) +. 1.)

  let miss_rate ~n ~sets ~assoc ~block_elems ~color_frac =
    let d = d ~n in
    miss_rate ~d ~k:(k ~block_elems)
      ~r:(Float.min d (r_s ~sets ~assoc ~block_elems ~color_frac))

  let predicted_speedup ~lat ~n ~sets ~assoc ~block_elems ~color_frac ~ml1_cc =
    let ml2_cc = miss_rate ~n ~sets ~assoc ~block_elems ~color_frac in
    speedup lat ~naive:worst_case_naive ~cc:(ml1_cc, ml2_cc)
end
