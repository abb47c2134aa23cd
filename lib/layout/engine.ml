type cold_order = Dfs_first_visit | Plan_order

type t = {
  name : string;
  describe : string;
  cold_order : cold_order;
  plan : Tree.t -> k:int -> Plan.t;
}

let subtree =
  {
    name = "subtree";
    describe = "pack k-node subtrees per block, breadth-first (paper 2.1)";
    cold_order = Dfs_first_visit;
    plan = Subtree.plan;
  }

let depth_first =
  {
    name = "depth_first";
    describe = "chunk the depth-first preorder into blocks (paper 2.1)";
    cold_order = Dfs_first_visit;
    plan = Depth_first.plan;
  }

let veb =
  {
    name = "veb";
    describe = "recursive van Emde Boas subdivision: cache-oblivious, \
                optimizes every hierarchy level at once";
    cold_order = Plan_order;
    plan = Veb.plan;
  }

let weighted =
  {
    name = "weighted";
    describe = "profile-weighted hottest parent-child chain packing \
                (Alstrup-style)";
    cold_order = Plan_order;
    plan = Weighted.plan;
  }

let builtins = [ subtree; depth_first; veb; weighted ]
