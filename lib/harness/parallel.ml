(* Process-parallel map: fork one child per element, marshal each typed
   result back over a pipe, reassemble in list order.

   Forking (rather than threads/domains) gives each job a private copy
   of every piece of global simulator state — allocator site counters,
   ccmorph observers, RNG streams — so a job computes exactly what it would
   have computed in a fresh serial process.  Determinism requirement on
   callers: jobs must not read state mutated by an *earlier* job, i.e.
   each job seeds its own RNGs.  Every runner in this repository does
   (benchmark params carry explicit seeds), which is what makes the
   parallel output byte-identical to the serial one. *)

let child_main fd f x =
  let oc = Unix.out_channel_of_descr fd in
  let result =
    match f x with v -> Ok v | exception e -> Error (Printexc.to_string e)
  in
  (* without [Closures], a result holding a function fails to marshal:
     report that as the job's error rather than dying silently *)
  (try Marshal.to_channel oc result []
   with e -> Marshal.to_channel oc (Error (Printexc.to_string e)) []);
  (try close_out oc with _ -> ());
  (* _exit: never rerun the parent's at_exit hooks or flush its
     buffered output a second time from the child *)
  Unix._exit 0

let map_forked f xs =
  (* Anything buffered before the fork would be flushed once per child. *)
  flush stdout;
  flush stderr;
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  let children =
    List.map
      (fun x ->
        let r, w = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
            Unix.close r;
            child_main w f x
        | pid ->
            Unix.close w;
            (pid, r))
      xs
  in
  (* Each child writes only to its own pipe, so draining them one by one
     in list order cannot deadlock. *)
  List.mapi
    (fun i (pid, r) ->
      let ic = Unix.in_channel_of_descr r in
      let result =
        match (Marshal.from_channel ic : (_, string) result) with
        | res -> Some res
        | exception End_of_file -> None
      in
      close_in ic;
      let fail msg = failwith (Printf.sprintf "parallel job %d: %s" i msg) in
      let _, status = Unix.waitpid [] pid in
      match (status, result) with
      | Unix.WEXITED 0, Some (Ok v) -> v
      | Unix.WEXITED 0, Some (Error msg) -> fail msg
      | Unix.WEXITED 0, None -> fail "no result"
      | Unix.WEXITED n, _ -> fail (Printf.sprintf "exit %d" n)
      | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
          fail (Printf.sprintf "signal %d" n))
    children

let map ?(parallel = true) f xs =
  if parallel && Sys.os_type = "Unix" && List.compare_length_with xs 1 > 0
  then map_forked f xs
  else List.map f xs
