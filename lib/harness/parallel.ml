(* Process-parallel experiment runner: fork one child per job, collect a
   JSON document from each over a pipe, reassemble in job order.

   Forking (rather than threads/domains) gives each job a private copy
   of every piece of global simulator state — allocator site counters,
   ccmorph observers, RNG streams — so a job computes exactly what it would
   have computed in a fresh serial process.  Determinism requirement on
   callers: jobs must not read state mutated by an *earlier* job, i.e.
   each job seeds its own RNGs.  Every runner in this repository does
   (benchmark params carry explicit seeds), which is what makes the
   parallel output byte-identical to the serial one. *)

module J = Obs.Json

let error_key = "__job_error"

let available = Sys.os_type = "Unix"

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let run_serial jobs = List.map (fun (name, job) -> (name, job ())) jobs

let child_main fd job =
  let payload =
    match job () with
    | j -> j
    | exception e -> J.Obj [ (error_key, J.String (Printexc.to_string e)) ]
  in
  (try write_all fd (J.to_string ~minify:true payload)
   with _ -> ());
  (try Unix.close fd with _ -> ());
  (* _exit: never rerun the parent's at_exit hooks or flush its
     buffered output a second time from the child *)
  Unix._exit 0

let run_forked jobs =
  (* Anything buffered before the fork would be flushed once per child. *)
  flush stdout;
  flush stderr;
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  let children =
    List.map
      (fun (name, job) ->
        let r, w = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
            Unix.close r;
            child_main w job
        | pid ->
            Unix.close w;
            (name, pid, r))
      jobs
  in
  (* Payloads are small (kilobytes), far below the pipe buffer, so
     collecting sequentially in job order cannot deadlock. *)
  List.map
    (fun (name, pid, r) ->
      let raw = read_all r in
      Unix.close r;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n ->
          failwith (Printf.sprintf "parallel job %s: exit %d" name n)
      | Unix.WSIGNALED n | Unix.WSTOPPED n ->
          failwith (Printf.sprintf "parallel job %s: signal %d" name n));
      match J.of_string raw with
      | Error e ->
          failwith (Printf.sprintf "parallel job %s: bad payload: %s" name e)
      | Ok j -> (
          match J.member error_key j with
          | Some (J.String msg) ->
              failwith (Printf.sprintf "parallel job %s: %s" name msg)
          | _ -> (name, j)))
    children

let run_jobs ?(parallel = true) jobs =
  match jobs with
  | [] -> []
  | [ _ ] -> run_serial jobs
  | _ -> if parallel && available then run_forked jobs else run_serial jobs
