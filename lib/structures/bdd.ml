module A = Memsim.Addr
module Machine = Memsim.Machine

type node = A.t

type t = {
  m : Machine.t;
  alloc : Alloc.Allocator.t;
  nvars : int;
  unique_mask : int;
  unique_table : A.t;  (* bucket-head array, 4 bytes per bucket *)
  cache_mask : int;
  cache : A.t;  (* direct-mapped computed cache, 16 bytes per entry *)
  zero : node;
  one : node;
  mutable nodes : int;
  mutable probes : int;
  mutable cache_lookups : int;
  mutable cache_hits : int;
}

let node_bytes = 16
let off_var = 0
let off_low = 4
let off_high = 8
let off_next = 12
let terminal_var = 0x3FFFFFFF

let machine t = t.m
let nvars t = t.nvars
let zero t = t.zero
let one t = t.one

let create ?alloc ?(unique_bits = 14) ?(cache_bits = 12) ~nvars m =
  if nvars <= 0 || nvars >= terminal_var then invalid_arg "Bdd.create: nvars";
  let alloc =
    match alloc with
    | Some a -> a
    | None -> Alloc.Bump.allocator (Alloc.Bump.create ~name:"bdd" m)
  in
  let meta = Alloc.Bump.create ~name:"bdd-tables" m in
  let unique_entries = 1 lsl unique_bits in
  let cache_entries = 1 lsl cache_bits in
  let unique_table = Alloc.Bump.alloc meta ~align:64 (unique_entries * 4) in
  let cache = Alloc.Bump.alloc meta ~align:64 (cache_entries * 16) in
  (* Terminals are ordinary heap nodes so pointer comparisons and loads
     behave uniformly. *)
  let mk_terminal () =
    let a = alloc.Alloc.Allocator.alloc ~site:"bdd.terminal" node_bytes in
    Machine.ustore32 m (a + off_var) terminal_var;
    Machine.ustore32 m (a + off_low) 0;
    Machine.ustore32 m (a + off_high) 0;
    Machine.ustore32 m (a + off_next) 0;
    a
  in
  let z = mk_terminal () in
  let o = mk_terminal () in
  {
    m;
    alloc;
    nvars;
    unique_mask = unique_entries - 1;
    unique_table;
    cache_mask = cache_entries - 1;
    cache;
    zero = z;
    one = o;
    nodes = 0;
    probes = 0;
    cache_lookups = 0;
    cache_hits = 0;
  }

let is_terminal t n = n = t.zero || n = t.one

(* Timed field reads. *)
let var_of t n = Machine.load32 t.m (n + off_var)
let low_of t n = Machine.load_ptr t.m (n + off_low)
let high_of t n = Machine.load_ptr t.m (n + off_high)

let hash3 a b c mask =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) lxor (c * 0xC2B2AE3D) in
  (h lxor (h lsr 15)) land mask

let mk t ~var ~low ~high =
  if low = high then low
  else begin
    if var < 0 || var >= t.nvars then invalid_arg "Bdd.mk: var out of range";
    let m = t.m in
    (* ordering invariant: children sit strictly below this level *)
    if var_of t low <= var || var_of t high <= var then
      invalid_arg "Bdd.mk: variable ordering violated";
    let cell = t.unique_table + (4 * hash3 var low high t.unique_mask) in
    t.probes <- t.probes + 1;
    let head = Machine.load_ptr m cell in
    let rec walk cur =
      if A.is_null cur then begin
        (* The allocation site is the unique-table insert, so the locally
           obvious ccmalloc hint is the collision-chain head this node is
           about to be linked in front of (chain walks dominate the
           package's memory traffic); fall back to the low child, whose
           block apply visits next. *)
        let hint =
          if not (A.is_null head) then head
          else if not (is_terminal t low) then low
          else if not (is_terminal t high) then high
          else A.null
        in
        let a =
          if A.is_null hint then
            t.alloc.Alloc.Allocator.alloc ~site:"bdd.node" node_bytes
          else t.alloc.Alloc.Allocator.alloc ~hint ~site:"bdd.node" node_bytes
        in
        Machine.store32 m (a + off_var) var;
        Machine.store_ptr m (a + off_low) low;
        Machine.store_ptr m (a + off_high) high;
        Machine.store_ptr m (a + off_next) head;
        Machine.store_ptr m cell a;
        t.nodes <- t.nodes + 1;
        a
      end
      else begin
        if
          Machine.load32 m (cur + off_var) = var
          && Machine.load_ptr m (cur + off_low) = low
          && Machine.load_ptr m (cur + off_high) = high
        then cur
        else walk (Machine.load_ptr m (cur + off_next))
      end
    in
    walk head
  end

let var t i =
  if i < 0 || i >= t.nvars then invalid_arg "Bdd.var: out of range";
  mk t ~var:i ~low:t.zero ~high:t.one

let nvar t i =
  if i < 0 || i >= t.nvars then invalid_arg "Bdd.nvar: out of range";
  mk t ~var:i ~low:t.one ~high:t.zero

(* Computed cache entries: op, f, g, result. op 0 means empty. *)
let cache_probe t op f g =
  t.cache_lookups <- t.cache_lookups + 1;
  let e = t.cache + (16 * hash3 op f g t.cache_mask) in
  let m = t.m in
  if
    Machine.load32 m e = op
    && Machine.load_ptr m (e + 4) = f
    && Machine.load_ptr m (e + 8) = g
  then begin
    t.cache_hits <- t.cache_hits + 1;
    Some (Machine.load_ptr m (e + 12))
  end
  else None

let cache_store t op f g result =
  let e = t.cache + (16 * hash3 op f g t.cache_mask) in
  let m = t.m in
  Machine.store32 m e op;
  Machine.store_ptr m (e + 4) f;
  Machine.store_ptr m (e + 8) g;
  Machine.store_ptr m (e + 12) result

type op = And | Or | Xor

let op_code = function And -> 1 | Or -> 2 | Xor -> 3

let terminal_case t op f g =
  match op with
  | And ->
      if f = t.zero || g = t.zero then Some t.zero
      else if f = t.one then Some g
      else if g = t.one then Some f
      else if f = g then Some f
      else None
  | Or ->
      if f = t.one || g = t.one then Some t.one
      else if f = t.zero then Some g
      else if g = t.zero then Some f
      else if f = g then Some f
      else None
  | Xor ->
      if f = g then Some t.zero
      else if f = t.zero then Some g
      else if g = t.zero then Some f
      else None

let apply t op f g =
  let commutative = true in
  let code = op_code op in
  let rec go f g =
    match terminal_case t op f g with
    | Some r -> r
    | None -> (
        (* canonicalize argument order for the cache *)
        let f, g = if commutative && f > g then (g, f) else (f, g) in
        match cache_probe t code f g with
        | Some r -> r
        | None ->
            let vf = var_of t f and vg = var_of t g in
            let v = min vf vg in
            let f0, f1 =
              if vf = v then (low_of t f, high_of t f) else (f, f)
            in
            let g0, g1 =
              if vg = v then (low_of t g, high_of t g) else (g, g)
            in
            let r0 = go f0 g0 in
            let r1 = go f1 g1 in
            let r = mk t ~var:v ~low:r0 ~high:r1 in
            cache_store t code f g r;
            r)
  in
  go f g

let band t f g = apply t And f g
let bor t f g = apply t Or f g
let bxor t f g = apply t Xor f g
let bnot t f = bxor t f t.one
let biff t f g = bnot t (bxor t f g)

let ite t f g h =
  (* (f ∧ g) ∨ (¬f ∧ h) *)
  bor t (band t f g) (band t (bnot t f) h)

let restrict t f ~var ~value =
  let memo = Hashtbl.create 256 in
  let rec go f =
    if is_terminal t f then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
          let v = var_of t f in
          let r =
            if v > var then f  (* ordered: [var] cannot occur below *)
            else if v = var then if value then high_of t f else low_of t f
            else mk t ~var:v ~low:(go (low_of t f)) ~high:(go (high_of t f))
          in
          Hashtbl.replace memo f r;
          r
  in
  go f

let exists t f pred =
  let memo = Hashtbl.create 256 in
  let rec go f =
    if is_terminal t f then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
          let v = var_of t f in
          let l = go (low_of t f) in
          let h = go (high_of t f) in
          let r = if pred v then bor t l h else mk t ~var:v ~low:l ~high:h in
          Hashtbl.replace memo f r;
          r
  in
  go f

let relabel t f map =
  let memo = Hashtbl.create 256 in
  let rec go f =
    if is_terminal t f then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
          let v = var_of t f in
          let l = go (low_of t f) in
          let h = go (high_of t f) in
          let r = mk t ~var:(map v) ~low:l ~high:h in
          Hashtbl.replace memo f r;
          r
  in
  go f

(* Untimed oracles. *)

let ueval_field t n off = Machine.uload32 t.m (n + off)

let eval t f assign =
  let rec go f =
    if f = t.zero then false
    else if f = t.one then true
    else
      let v = ueval_field t f off_var in
      if assign v then go (ueval_field t f off_high)
      else go (ueval_field t f off_low)
  in
  go f

let sat_count t f =
  let memo = Hashtbl.create 256 in
  let rec go f =
    (* counts assignments of variables >= var(f) scaled at the end *)
    if f = t.zero then 0.
    else if f = t.one then 1.
    else
      match Hashtbl.find_opt memo f with
      | Some c -> c
      | None ->
          let v = ueval_field t f off_var in
          let weight kid =
            let vk =
              if kid = t.zero || kid = t.one then t.nvars
              else ueval_field t kid off_var
            in
            go kid *. (2. ** float_of_int (vk - v - 1))
          in
          let c = weight (ueval_field t f off_low) +. weight (ueval_field t f off_high) in
          Hashtbl.replace memo f c;
          c
  in
  if f = t.zero then 0.
  else if f = t.one then 2. ** float_of_int t.nvars
  else
    let v = ueval_field t f off_var in
    go f *. (2. ** float_of_int v)

let node_count t f =
  let seen = Hashtbl.create 256 in
  let rec go f =
    if (not (is_terminal t f)) && not (Hashtbl.mem seen f) then begin
      Hashtbl.replace seen f ();
      go (ueval_field t f off_low);
      go (ueval_field t f off_high)
    end
  in
  go f;
  Hashtbl.length seen

let gc t ~roots =
  let m = t.m in
  (* mark: timed DFS from the roots *)
  let live = Hashtbl.create (max 64 (t.nodes / 2)) in
  let rec mark n =
    if (not (is_terminal t n)) && not (Hashtbl.mem live n) then begin
      Hashtbl.replace live n ();
      mark (low_of t n);
      mark (high_of t n)
    end
  in
  List.iter mark roots;
  (* sweep: unlink dead nodes from every unique-table chain and return
     them to the allocator *)
  let freed = ref 0 in
  for bucket = 0 to t.unique_mask do
    let cell = t.unique_table + (4 * bucket) in
    (* prev = 0 means the bucket cell itself *)
    let rec sweep prev cur =
      if not (A.is_null cur) then begin
        let next = Machine.load_ptr m (cur + off_next) in
        if Hashtbl.mem live cur then sweep cur next
        else begin
          (if A.is_null prev then Machine.store_ptr m cell next
           else Machine.store_ptr m (prev + off_next) next);
          if t.alloc.Alloc.Allocator.owns cur then
            t.alloc.Alloc.Allocator.free cur;
          incr freed;
          sweep prev next
        end
      end
    in
    sweep A.null (Machine.load_ptr m cell)
  done;
  t.nodes <- t.nodes - !freed;
  (* the computed cache may reference dead nodes: clear it (timed) *)
  for e = 0 to t.cache_mask do
    Machine.store32 m (t.cache + (16 * e)) 0
  done;
  !freed

let live_nodes t = t.nodes
let unique_table_probes t = t.probes
let cache_lookups t = t.cache_lookups
let cache_hits t = t.cache_hits
