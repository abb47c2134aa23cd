module J = Obs.Json

let hr ppf = Format.fprintf ppf "%s@." (String.make 78 '-')

let section ppf title =
  hr ppf;
  Format.fprintf ppf "%s@." title;
  hr ppf

let olden_result (r : Olden.Common.result) =
  J.Obj
    [
      ("label", J.String r.Olden.Common.r_label);
      ("checksum", J.Int r.Olden.Common.checksum);
      ("cost", Obs.Export.cost_snapshot r.Olden.Common.snapshot);
      ("l1_miss_rate", J.Float r.Olden.Common.l1_miss_rate);
      ("l2_miss_rate", J.Float r.Olden.Common.l2_miss_rate);
      ("l2_misses_per_ref", J.Float r.Olden.Common.l2_misses_per_ref);
      ("memory_bytes", J.Int r.Olden.Common.memory_bytes);
      ("structures_bytes", J.Int r.Olden.Common.structures_bytes);
    ]

let pct part total =
  if total = 0 then 0. else 100. *. float_of_int part /. float_of_int total
