module A = Memsim.Addr
module Machine = Memsim.Machine

type t = {
  m : Machine.t;
  shadow : Shadow.t;
  hints : Hintlint.t;
  fields : Fields.t;
  block_bytes : int;
  mutable cc : Ccsl.Ccmalloc.t option;
  mutable accesses : int;
  mutable sub : Machine.subscription option;
  mutable morph_obs : Ccsl.Ccmorph.observer_id option;
}

let create ?window m =
  {
    m;
    shadow = Shadow.create m;
    hints = Hintlint.create ?window ();
    fields = Fields.create ();
    block_bytes = Machine.l2_block_bytes m;
    cc = None;
    accesses = 0;
    sub = None;
    morph_obs = None;
  }

let set_ccmalloc t cc =
  t.cc <- Some cc;
  Shadow.set_ccmalloc t.shadow cc

let wrap_allocator t (a : Alloc.Allocator.t) =
  {
    a with
    Alloc.Allocator.alloc =
      (fun ?hint ?site bytes ->
        let addr = a.Alloc.Allocator.alloc ?hint ?site bytes in
        Shadow.note_alloc t.shadow ?hint ?site addr bytes;
        let hinted =
          match hint with Some h -> not (A.is_null h) | None -> false
        in
        let hint_managed =
          hinted
          &&
          match (t.cc, hint) with
          | Some cc, Some h -> Ccsl.Ccmalloc.manages cc h
          | None, _ -> true (* nothing to judge against *)
          | _, None -> false
        in
        Hintlint.note_alloc t.hints ?site ~hinted ~hint_managed ();
        addr);
    free =
      (fun addr ->
        Shadow.note_free t.shadow addr;
        a.Alloc.Allocator.free addr);
  }

let on_trace t write addr =
  t.accesses <- t.accesses + 1;
  let block = A.block_index addr ~block_bytes:t.block_bytes in
  match Shadow.record_access t.shadow ~write addr with
  | Shadow.Heap { site; hint_block; _ } ->
      Hintlint.on_access t.hints ~block ~site ~hint_block
  | Shadow.Elem { base; struct_id } ->
      Fields.on_access t.fields ~struct_id ~offset:(addr - base);
      Hintlint.push_unattributed t.hints ~block
  | Shadow.Outside | Shadow.Violation ->
      Hintlint.push_unattributed t.hints ~block

let note_morph t ?struct_id ~params ~desc result =
  let struct_id =
    match struct_id with
    | Some s -> s
    | None -> Shadow.default_struct_id desc
  in
  Shadow.note_morph t.shadow ~struct_id ~params ~desc result;
  if result.Ccsl.Ccmorph.nodes > 0 then
    Fields.note_struct t.fields ~struct_id
      ~elem_bytes:desc.Ccsl.Ccmorph.elem_bytes

let attach t =
  if t.sub = None then
    t.sub <- Some (Machine.subscribe t.m (fun write addr -> on_trace t write addr));
  if t.morph_obs = None then
    t.morph_obs <-
      Some
        (Ccsl.Ccmorph.add_observer (fun obs ->
             if obs.Ccsl.Ccmorph.obs_machine == t.m then
               note_morph t ~params:obs.Ccsl.Ccmorph.obs_params
                 ~desc:obs.Ccsl.Ccmorph.obs_desc obs.Ccsl.Ccmorph.obs_result))

let detach t =
  (match t.sub with
  | Some s ->
      Machine.unsubscribe t.m s;
      t.sub <- None
  | None -> ());
  match t.morph_obs with
  | Some id ->
      Ccsl.Ccmorph.remove_observer id;
      t.morph_obs <- None
  | None -> ()

let accesses_seen t = t.accesses

let finalize t =
  (* Hint quality (and the counter identity) are only meaningful when a
     cache-conscious allocator is actually behind the run; a plain-malloc
     phase would repeat the same findings with no hint to fix. *)
  let cc_diags =
    match t.cc with
    | Some cc ->
        Shadow.check_counters (Ccsl.Ccmalloc.counters cc)
        @ Hintlint.diags t.hints ~total_accesses:t.accesses
    | None -> []
  in
  List.sort Diag.order
    (Shadow.diags t.shadow
    @ cc_diags
    @ Fields.diags t.fields ~block_bytes:t.block_bytes)
