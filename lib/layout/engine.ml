type cold_order = Dfs_first_visit | Plan_order

type t = {
  name : string;
  cold_order : cold_order;
  plan : Tree.t -> k:int -> Plan.t;
}

let subtree = { name = "subtree"; cold_order = Dfs_first_visit; plan = Subtree.plan }

let depth_first =
  {
    name = "depth_first";
    cold_order = Dfs_first_visit;
    plan = (fun t ~k -> Plan.chunk ~n:t.Tree.n ~order:(Tree.dfs_order t) ~k);
  }

let veb = { name = "veb"; cold_order = Plan_order; plan = Veb.plan }
let weighted = { name = "weighted"; cold_order = Plan_order; plan = Weighted.plan }
let builtins = [ subtree; depth_first; veb; weighted ]
