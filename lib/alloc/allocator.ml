type stats = {
  allocations : int;
  frees : int;
  bytes_requested : int;
  bytes_reserved : int;
}

type t = {
  name : string;
  alloc : ?hint:Memsim.Addr.t -> ?site:string -> int -> Memsim.Addr.t;
  free : Memsim.Addr.t -> unit;
  owns : Memsim.Addr.t -> bool;
  stats : unit -> stats;
}
