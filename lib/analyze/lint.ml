module A = Memsim.Addr
module Machine = Memsim.Machine

(* Per allocation site: hinted allocations, and those whose hint lies
   outside the cache-conscious allocator's pages. *)
type site_hints = { mutable hinted : int; mutable unmanaged : int }

type t = {
  m : Machine.t;
  shadow : Shadow.t;
  sites : (string, site_hints) Hashtbl.t;
  mutable cc : Ccsl.Ccmalloc.t option;
  mutable accesses : int;
  mutable sub : Machine.subscription option;
  mutable morph_obs : Ccsl.Ccmorph.observer_id option;
}

let create m =
  {
    m;
    shadow = Shadow.create m;
    sites = Hashtbl.create 16;
    cc = None;
    accesses = 0;
    sub = None;
    morph_obs = None;
  }

let set_ccmalloc t cc =
  t.cc <- Some cc;
  Shadow.set_ccmalloc t.shadow cc

let note_hint t cc ?(site = "<unlabeled>") hint =
  let s =
    match Hashtbl.find_opt t.sites site with
    | Some s -> s
    | None ->
        let s = { hinted = 0; unmanaged = 0 } in
        Hashtbl.replace t.sites site s;
        s
  in
  s.hinted <- s.hinted + 1;
  if not (Ccsl.Ccmalloc.manages cc hint) then s.unmanaged <- s.unmanaged + 1

let wrap_allocator t (a : Alloc.Allocator.t) =
  {
    a with
    Alloc.Allocator.alloc =
      (fun ?hint ?site bytes ->
        let addr = a.Alloc.Allocator.alloc ?hint ?site bytes in
        Shadow.note_alloc t.shadow addr bytes;
        (match (t.cc, hint) with
        | Some cc, Some h when not (A.is_null h) -> note_hint t cc ?site h
        | _ -> ());
        addr);
    free =
      (fun addr ->
        Shadow.note_free t.shadow addr;
        a.Alloc.Allocator.free addr);
  }

let note_morph t ?struct_id ~params ~desc result =
  Shadow.note_morph t.shadow ?struct_id ~params ~desc result

let attach t =
  if t.sub = None then
    t.sub <-
      Some
        (Machine.subscribe t.m (fun write addr ->
             t.accesses <- t.accesses + 1;
             Shadow.record_access t.shadow ~write addr));
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

let unmanaged_diags t =
  Hashtbl.fold
    (fun site s acc ->
      if s.unmanaged > 0 then
        Diag.v ~rule:"hint/unmanaged" Diag.Warn ~subject:(Diag.Site site)
          ~evidence:
            [
              ("unmanaged_hints", float_of_int s.unmanaged);
              ("hinted_allocations", float_of_int s.hinted);
            ]
          (Printf.sprintf
             "%d of %d hints point outside the allocator's managed pages \
              (another allocator's arena?); each degrades to an unhinted \
              allocation"
             s.unmanaged s.hinted)
        :: acc
      else acc)
    t.sites []

let finalize t =
  (* The counter identity needs a cache-conscious allocator behind the
     run; without one, no hint was judged either. *)
  let cc_diags =
    match t.cc with
    | Some cc -> Shadow.check_counters (Ccsl.Ccmalloc.counters cc)
    | None -> []
  in
  List.sort Diag.order (Shadow.diags t.shadow @ cc_diags @ unmanaged_diags t)
