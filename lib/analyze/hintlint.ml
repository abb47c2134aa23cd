type slot = { w_block : int; w_site : string option }

type site_stats = {
  mutable allocs : int;
  mutable hinted_allocs : int;
  mutable unmanaged_hints : int;
  mutable accesses : int;
  mutable affinity_tries : int;  (* accesses to objects born with a hint *)
  mutable affinity_hits : int;  (* ... whose hint block was in the window *)
  coacc : (string, int) Hashtbl.t;  (* partner site -> co-access count *)
}

type t = {
  window : int;
  ring : slot array;
  mutable ring_len : int;
  mutable ring_pos : int;
  (* membership counts over the current window contents *)
  blocks_in : (int, int) Hashtbl.t;
  sites_in : (string, int) Hashtbl.t;
  sites : (string, site_stats) Hashtbl.t;
}

let anon = "<unlabeled>"

let create ?(window = 32) () =
  if window < 2 then invalid_arg "Hintlint.create: window < 2";
  {
    window;
    ring = Array.make window { w_block = -1; w_site = None };
    ring_len = 0;
    ring_pos = 0;
    blocks_in = Hashtbl.create 64;
    sites_in = Hashtbl.create 16;
    sites = Hashtbl.create 16;
  }

let stats t site =
  let key = match site with Some s -> s | None -> anon in
  match Hashtbl.find_opt t.sites key with
  | Some s -> s
  | None ->
      let s =
        {
          allocs = 0;
          hinted_allocs = 0;
          unmanaged_hints = 0;
          accesses = 0;
          affinity_tries = 0;
          affinity_hits = 0;
          coacc = Hashtbl.create 8;
        }
      in
      Hashtbl.replace t.sites key s;
      s

let note_alloc t ?site ~hinted ~hint_managed () =
  let s = stats t site in
  s.allocs <- s.allocs + 1;
  if hinted then begin
    s.hinted_allocs <- s.hinted_allocs + 1;
    if not hint_managed then s.unmanaged_hints <- s.unmanaged_hints + 1
  end

let bump tbl key delta =
  let n = (match Hashtbl.find_opt tbl key with Some n -> n | None -> 0) + delta in
  if n <= 0 then Hashtbl.remove tbl key else Hashtbl.replace tbl key n

let push t slot =
  if t.ring_len = t.window then begin
    let old = t.ring.(t.ring_pos) in
    if old.w_block >= 0 then bump t.blocks_in old.w_block (-1);
    (match old.w_site with Some s -> bump t.sites_in s (-1) | None -> ())
  end
  else t.ring_len <- t.ring_len + 1;
  t.ring.(t.ring_pos) <- slot;
  t.ring_pos <- (t.ring_pos + 1) mod t.window;
  if slot.w_block >= 0 then bump t.blocks_in slot.w_block 1;
  match slot.w_site with Some s -> bump t.sites_in s 1 | None -> ()

let push_unattributed t ~block = push t { w_block = block; w_site = None }

let on_access t ~block ~site ~hint_block =
  let s = stats t site in
  s.accesses <- s.accesses + 1;
  let self = match site with Some x -> x | None -> anon in
  (* co-access: which sites' objects share the current window with us *)
  Hashtbl.iter
    (fun partner _ ->
      if partner <> self then bump s.coacc partner 1)
    t.sites_in;
  if hint_block >= 0 then begin
    s.affinity_tries <- s.affinity_tries + 1;
    if Hashtbl.mem t.blocks_in hint_block then
      s.affinity_hits <- s.affinity_hits + 1
  end;
  push t { w_block = block; w_site = site }

let best_partner s =
  Hashtbl.fold
    (fun partner n best ->
      match best with
      | Some (_, bn) when bn >= n -> best
      | _ -> Some (partner, n))
    s.coacc None

let suggestion s =
  match best_partner s with
  | Some (partner, n) when n > 0 ->
      Printf.sprintf
        "; objects from site %s were co-accessed most often (%d windows) — \
         hint at the relevant one of those"
        partner n
  | _ -> ""

(* Thresholds.  Deliberately conservative: the lint should stay quiet on
   the shipped benchmarks except where a hint is genuinely absent or
   genuinely wasted. *)
let hot_share = 0.10
let min_allocs = 32
let min_affinity_tries = 256
let low_affinity = 0.02

let diags t ~total_accesses =
  Hashtbl.fold
    (fun site s acc ->
      let share =
        if total_accesses = 0 then 0.
        else float_of_int s.accesses /. float_of_int total_accesses
      in
      let acc =
        if s.hinted_allocs = 0 && s.allocs >= min_allocs && share >= hot_share
        then
          Diag.v ~rule:"hint/null-on-hot-path" Diag.Warn
            ~subject:(Diag.Site site)
            ~evidence:
              [
                ("allocations", float_of_int s.allocs);
                ("accesses", float_of_int s.accesses);
                ("access_share", share);
              ]
            (Printf.sprintf
               "site allocates under a cache-conscious allocator but never \
                passes a hint, and its objects absorb %.0f%% of traced heap \
                accesses%s"
               (100. *. share) (suggestion s))
          :: acc
        else acc
      in
      let acc =
        if s.unmanaged_hints > 0 then
          Diag.v ~rule:"hint/unmanaged" Diag.Warn ~subject:(Diag.Site site)
            ~evidence:
              [
                ("unmanaged_hints", float_of_int s.unmanaged_hints);
                ("hinted_allocations", float_of_int s.hinted_allocs);
              ]
            (Printf.sprintf
               "%d of %d hints point outside the allocator's managed pages \
                (another allocator's arena?); each degrades to an unhinted \
                allocation"
               s.unmanaged_hints s.hinted_allocs)
          :: acc
        else acc
      in
      let affinity =
        if s.affinity_tries = 0 then 1.
        else float_of_int s.affinity_hits /. float_of_int s.affinity_tries
      in
      if s.affinity_tries >= min_affinity_tries && affinity < low_affinity then
        Diag.v ~rule:"hint/low-affinity" Diag.Warn ~subject:(Diag.Site site)
          ~evidence:
            [
              ("affinity", affinity);
              ("hinted_object_accesses", float_of_int s.affinity_tries);
              ("window_hits", float_of_int s.affinity_hits);
            ]
          (Printf.sprintf
             "objects from this site are accessed near their hinted block \
              only %.1f%% of the time; the hint does not reflect real \
              co-access%s"
             (100. *. affinity) (suggestion s))
        :: acc
      else acc)
    t.sites []
