(* Process-parallel map: fork a child per element, at most one per core
   alive at once, marshal each typed result back over a pipe, reassemble
   in list order.

   Forking (rather than threads/domains) gives each job a private copy
   of every piece of global simulator state — allocator site counters,
   ccmorph observers, RNG streams — so a job computes exactly what it would
   have computed in a fresh serial process.  Determinism requirement on
   callers: jobs must not read state mutated by an *earlier* job, i.e.
   each job seeds its own RNGs.  Every runner in this repository does
   (benchmark params carry explicit seeds), which is what makes the
   forked output byte-identical to the in-process one. *)

(* Set in a forked child: a job never forks again, so nested maps run
   in the job's own process and the width bound holds globally. *)
let in_child = ref false

let fail i msg = failwith (Printf.sprintf "parallel job %d: %s" i msg)

let run_job f x =
  match f x with v -> Ok v | exception e -> Error (Printexc.to_string e)

let get i = function Ok v -> v | Error msg -> fail i msg

let child_main fd f x =
  in_child := true;
  let oc = Unix.out_channel_of_descr fd in
  let result = run_job f x in
  (* without [Closures], a result holding a function fails to marshal:
     report that as the job's error rather than dying silently *)
  (try Marshal.to_channel oc result []
   with e -> Marshal.to_channel oc (Error (Printexc.to_string e)) []);
  (try close_out oc with _ -> ());
  (* _exit: never rerun the parent's at_exit hooks or flush its
     buffered output a second time from the child *)
  Unix._exit 0

let spawn f x =
  (* Anything buffered before the fork would be flushed once per child. *)
  flush stdout;
  flush stderr;
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      child_main w f x
  | pid ->
      Unix.close w;
      (pid, r)

type running = { idx : int; pid : int; fd : Unix.file_descr; buf : Buffer.t }

(* The child has closed its pipe: reap it and decode what it sent.  The
   pipe is drained before [waitpid], since a child blocked writing a
   result larger than the pipe buffer would never exit. *)
let finish c =
  Unix.close c.fd;
  let _, status = Unix.waitpid [] c.pid in
  match status with
  | Unix.WEXITED 0 when Buffer.length c.buf = 0 -> Error "no result"
  | Unix.WEXITED 0 -> Marshal.from_string (Buffer.contents c.buf) 0
  | Unix.WEXITED n -> Error (Printf.sprintf "exit %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "signal %d" n)

let map_forked ~width f xs =
  let results = Array.make (List.length xs) (Error "not run") in
  let chunk = Bytes.create 65536 in
  let rec loop pending running =
    match pending with
    | (idx, x) :: rest when List.compare_length_with running width < 0 ->
        let pid, fd = spawn f x in
        loop rest ({ idx; pid; fd; buf = Buffer.create 4096 } :: running)
    | _ when running = [] -> ()
    | _ ->
        let ready =
          match Unix.select (List.map (fun c -> c.fd) running) [] [] (-1.) with
          | ready, _, _ -> ready
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        let still_running c =
          (not (List.mem c.fd ready))
          ||
          match Unix.read c.fd chunk 0 (Bytes.length chunk) with
          | 0 ->
              results.(c.idx) <- finish c;
              false
          | n ->
              Buffer.add_subbytes c.buf chunk 0 n;
              true
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
        in
        loop pending (List.filter still_running running)
  in
  loop (List.mapi (fun i x -> (i, x)) xs) [];
  (* the lowest failing index wins, as in the in-process path *)
  List.mapi get (Array.to_list results)

let map f xs =
  let width = Domain.recommended_domain_count () in
  if
    !in_child || width <= 1 || Sys.os_type <> "Unix"
    || List.compare_length_with xs 1 <= 0
  then List.mapi (fun i x -> get i (run_job f x)) xs
  else map_forked ~width f xs
