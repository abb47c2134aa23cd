module A = Memsim.Addr
module Machine = Memsim.Machine
module Ll = Structures.Linked_list
module Rng = Workload.Rng
module Int_stack = Alloc.Int_stack

type params = {
  levels : int;
  steps : int;
  morph_interval : int;
  seed : int;
}

let default_params = { levels = 4; steps = 365; morph_interval = 50; seed = 23 }
let paper_params = { levels = 3; steps = 3000; morph_interval = 50; seed = 23 }
let villages_of p =
  let rec go l acc pow = if l < 0 then acc else go (l - 1) (acc + pow) (pow * 4) in
  go p.levels 0 1

(* patient record: hosps_visited@0, total_time@4, time_left@8 *)
let patient_bytes = 12
let off_visited = 0
let off_total = 4
let off_left_t = 8

type village = {
  id : int;
  parent : int;  (* village index, -1 at root *)
  is_leaf : bool;
  rng : Rng.t;
  waiting : Ll.t;
  assess : Ll.t;
  inside : Ll.t;
}

let assess_time = 3
let inside_time = 20
let transfer_prob = 0.4
let arrival_prob = 0.9

let make_villages (ctx : Common.ctx) p =
  let n = villages_of p in
  let height = p.levels in
  (* index 0 is the root; children of v at level l are 4v+1..4v+4 in a
     heap-style numbering *)
  let level_of =
    let rec go i l = if i = 0 then l else go ((i - 1) / 4) (l + 1) in
    fun i -> go i 0
  in
  Array.init n (fun i ->
      {
        id = i;
        parent = (if i = 0 then -1 else (i - 1) / 4);
        is_leaf = level_of i = height;
        rng = Rng.create (p.seed + (i * 7919));
        waiting = Ll.create ctx.Common.machine ~alloc:ctx.Common.alloc;
        assess = Ll.create ctx.Common.machine ~alloc:ctx.Common.alloc;
        inside = Ll.create ctx.Common.machine ~alloc:ctx.Common.alloc;
      })

let new_patient (ctx : Common.ctx) v =
  (* patients are allocated with no hint: hinting each one at the head of
     the first non-empty village list was measured to leave the Figure 7
     health rows no better (first-fit worse), and a leaf's waiting list
     is always empty when a patient arrives, so it offers no hint *)
  let m = ctx.Common.machine in
  let pat =
    ctx.Common.alloc.Alloc.Allocator.alloc ~site:"health.patient" patient_bytes
  in
  Machine.store32 m (pat + off_visited) 1;
  Machine.store32 m (pat + off_total) 0;
  Machine.store32 m (pat + off_left_t) 0;
  ignore (Ll.append v.waiting pat)

(* Move the node carrying [pat] from [src] to [dst] (the Olden removeList
   / addList pair: the old cell is freed, a fresh one is allocated at the
   destination's tail).  Cells that ccmorph has migrated into its arenas
   no longer belong to the allocator and are simply dropped. *)
let free_cell (ctx : Common.ctx) node =
  if ctx.Common.alloc.Alloc.Allocator.owns node then
    ctx.Common.alloc.Alloc.Allocator.free node

let move_patient ctx src dst node =
  let pat = Machine.load32 src.Ll.m (node + Ll.off_data) in
  Ll.remove src node;
  free_cell ctx node;
  ignore (Ll.append dst pat)

(* Snapshot the node addresses of [l] into [w], in list order, so
   mutation during the walk is safe; the walk itself is timed.  Under
   Sw_prefetch the walk greedily prefetches each successor (Luk-Mowry).
   [w] is one buffer reused by every walk of a run. *)
let collect_nodes (ctx : Common.ctx) w l =
  let m = l.Ll.m in
  Int_stack.clear w;
  let cur = ref l.Ll.head in
  while not (A.is_null !cur) do
    let next = Machine.load_ptr m (!cur + Ll.off_forward) in
    if ctx.Common.sw_prefetch then Machine.prefetch m next;
    Int_stack.push w !cur;
    cur := next
  done

let step_village (ctx : Common.ctx) w villages v processed =
  let m = ctx.Common.machine in
  (* check_inside: patients under treatment *)
  collect_nodes ctx w v.inside;
  for k = 0 to Int_stack.length w - 1 do
    let node = Int_stack.get w k in
    let pat = Machine.load32 m (node + Ll.off_data) in
    let left = Machine.load32s m (pat + off_left_t) in
    Machine.busy m 1;
    if left <= 1 then begin
      let pat = Machine.load32 m (node + Ll.off_data) in
      Ll.remove v.inside node;
      free_cell ctx node;
      if ctx.Common.alloc.Alloc.Allocator.owns pat then
        ctx.Common.alloc.Alloc.Allocator.free pat;
      incr processed
    end
    else Machine.store32 m (pat + off_left_t) (left - 1)
  done;
  (* check_assess: diagnosis; afterwards transfer up or admit *)
  collect_nodes ctx w v.assess;
  for k = 0 to Int_stack.length w - 1 do
    let node = Int_stack.get w k in
    let pat = Machine.load32 m (node + Ll.off_data) in
    let left = Machine.load32s m (pat + off_left_t) in
    Machine.busy m 1;
    if left <= 1 then
      if v.parent >= 0 && Rng.float v.rng < transfer_prob then begin
        let visited = Machine.load32 m (pat + off_visited) in
        Machine.store32 m (pat + off_visited) (visited + 1);
        Machine.store32 m (pat + off_left_t) 0;
        move_patient ctx v.assess villages.(v.parent).waiting node
      end
      else begin
        Machine.store32 m (pat + off_left_t) inside_time;
        move_patient ctx v.assess v.inside node
      end
    else Machine.store32 m (pat + off_left_t) (left - 1)
  done;
  (* check_waiting: one patient per step enters assessment; the whole
     list is still walked, as the Olden code does *)
  collect_nodes ctx w v.waiting;
  if Int_stack.length w > 0 then begin
    let node = Int_stack.get w 0 in
    let pat = Machine.load32 m (node + Ll.off_data) in
    Machine.store32 m (pat + off_left_t) assess_time;
    move_patient ctx v.waiting v.assess node
  end;
  (* arrivals at the leaves *)
  if v.is_leaf && Rng.float v.rng < arrival_prob then new_patient ctx v

let morph_all_lists (ctx : Common.ctx) villages =
  match ctx.Common.morph_params with
  | None -> ()
  | Some p ->
      let lists =
        Array.to_list villages
        |> List.concat_map (fun v -> [ v.waiting; v.assess; v.inside ])
      in
      let roots = Array.of_list (List.map (fun l -> l.Ll.head) lists) in
      let desc = Ll.desc ~elem_bytes:12 in
      let r =
        Ccsl.Ccmorph.morph_forest ~params:p ctx.Common.machine desc ~roots
      in
      List.iteri
        (fun i l ->
          Ll.set_head l r.Ccsl.Ccmorph.new_roots.(i) ~length:l.Ll.length)
        lists

let run ?(params = default_params) ?(measure_whole = false) ?config ?ctx
    placement =
  let ctx =
    match ctx with Some c -> c | None -> Common.make_ctx ?config placement
  in
  let villages = make_villages ctx params in
  (* the measured region is the whole simulation, including every
     periodic ccmorph invocation, as in the paper *)
  if not measure_whole then Machine.reset_measurement ctx.Common.machine;
  let processed = ref 0 in
  let w = Int_stack.create 256 in
  for step = 1 to params.steps do
    (* children before parents so transfers settle one level per step *)
    for i = Array.length villages - 1 downto 0 do
      step_village ctx w villages villages.(i) processed
    done;
    if step mod params.morph_interval = 0 then morph_all_lists ctx villages
  done;
  let remaining =
    Array.fold_left
      (fun acc v -> acc + v.waiting.Ll.length + v.assess.Ll.length + v.inside.Ll.length)
      0 villages
  in
  Common.finish ctx ~checksum:((!processed * 1000) + remaining)
