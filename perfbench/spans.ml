(* In-memory span recorder for the benchmark's traced run.

   A span is one call into a layer, timed from the benchmark's side of
   the call: wall time, the OCaml minor words allocated inside it, and
   the simulated L1 references made inside it.  Calls made hundreds of
   thousands of times per arm (allocator calls, engine plans) share one
   span per parent, which accumulates their count and summed cost, so a
   health arm's ~750k allocator calls stay one record per closure.

   [enter] and [leave] allocate nothing of their own: every field they
   write is an unboxed float, so recording does not perturb the
   minor-word counts it measures.  (The library's [Obs.Span] allocates
   per call and keeps no parent ids, which is why the benchmark carries
   its own recorder.) *)

type acc = {
  mutable calls : float;
  mutable start_s : float;
  mutable stop_s : float;
  mutable dur_s : float;
  mutable words : float;
  mutable refs : float;
  (* marks of the call in progress *)
  mutable t0 : float;
  mutable w0 : float;
  mutable x0 : float;
}

type span = {
  id : int;
  parent : int;
  name : string;
  label : string;
  acc : acc;
}

type t = {
  run_id : string;
  origin : float;
  mutable log : span list;  (* newest first *)
  mutable next_id : int;
}

let no_parent = -1

let create run_id =
  { run_id; origin = Unix.gettimeofday (); log = []; next_id = 0 }

let span t ?(parent = no_parent) ?(label = "") name =
  let acc =
    {
      calls = 0.;
      start_s = 0.;
      stop_s = 0.;
      dur_s = 0.;
      words = 0.;
      refs = 0.;
      t0 = 0.;
      w0 = 0.;
      x0 = 0.;
    }
  in
  let s = { id = t.next_id; parent; name; label; acc } in
  t.next_id <- t.next_id + 1;
  t.log <- s :: t.log;
  s

(* [refs] is the simulated L1 reference counter at entry and exit.  The
   clock is read inside the minor-word window on both sides, so any
   allocation by the clock itself falls outside it. *)
let enter s refs =
  let a = s.acc in
  a.x0 <- float_of_int refs;
  a.t0 <- Unix.gettimeofday ();
  a.w0 <- Gc.minor_words ()

let leave s refs =
  let a = s.acc in
  let w1 = Gc.minor_words () in
  let t1 = Unix.gettimeofday () in
  if a.calls = 0. then a.start_s <- a.t0;
  a.stop_s <- t1;
  a.calls <- a.calls +. 1.;
  a.dur_s <- a.dur_s +. (t1 -. a.t0);
  a.words <- a.words +. (w1 -. a.w0);
  a.refs <- a.refs +. (float_of_int refs -. a.x0)

let spans t = List.rev t.log
let calls s = int_of_float s.acc.calls
let dur s = s.acc.dur_s
let words s = s.acc.words
let refs s = s.acc.refs

let children t s = List.filter (fun c -> c.parent = s.id) t.log

(* A span's self time: its duration minus what its children cover. *)
let self_s t s =
  List.fold_left (fun acc c -> acc -. dur c) (dur s) (children t s)

let to_json t =
  let module J = Obs.Json in
  J.List
    (List.filter_map
       (fun s ->
         let a = s.acc in
         if a.calls = 0. then None
         else
           Some
             (J.Obj
                [
                  ("run_id", J.String t.run_id);
                  ("id", J.Int s.id);
                  ("parent", J.Int s.parent);
                  ("name", J.String s.name);
                  ("label", J.String s.label);
                  ("start_s", J.Float (a.start_s -. t.origin));
                  ("end_s", J.Float (a.stop_s -. t.origin));
                  ("calls", J.Int (calls s));
                  ("dur_s", J.Float a.dur_s);
                  ("self_s", J.Float (self_s t s));
                  ("minor_words", J.Float a.words);
                  ("sim_refs", J.Int (int_of_float a.refs));
                ]))
       (spans t))
