type t = {
  mutable busy : int;
  mutable load_stall : int;
  mutable store_stall : int;
  mutable prefetch_issue : int;
}

type snapshot = {
  s_busy : int;
  s_load_stall : int;
  s_store_stall : int;
  s_prefetch_issue : int;
  s_total : int;
}

let create () = { busy = 0; load_stall = 0; store_stall = 0; prefetch_issue = 0 }
let total t = t.busy + t.load_stall + t.store_stall + t.prefetch_issue

let reset t =
  t.busy <- 0;
  t.load_stall <- 0;
  t.store_stall <- 0;
  t.prefetch_issue <- 0

let snapshot t =
  {
    s_busy = t.busy;
    s_load_stall = t.load_stall;
    s_store_stall = t.store_stall;
    s_prefetch_issue = t.prefetch_issue;
    s_total = total t;
  }
