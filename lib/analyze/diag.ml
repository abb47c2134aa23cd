module J = Obs.Json

type severity = Error | Warn

let severity_name = function Error -> "error" | Warn -> "warn"

let rank = function Error -> 0 | Warn -> 1

type subject =
  | Address of Memsim.Addr.t
  | Site of string
  | Structure of string
  | Global

type t = {
  rule : string;
  severity : severity;
  subject : subject;
  message : string;
  evidence : (string * float) list;
}

let v ~rule severity ?(subject = Global) ?(evidence = []) message =
  { rule; severity; subject; message; evidence }

let subject_key = function
  | Address a -> Printf.sprintf "a%012d" a
  | Site s -> "s" ^ s
  | Structure s -> "t" ^ s
  | Global -> ""

let order a b =
  let c = compare (rank a.severity) (rank b.severity) in
  if c <> 0 then c
  else
    let c = compare a.rule b.rule in
    if c <> 0 then c else compare (subject_key a.subject) (subject_key b.subject)

type summary = { n_errors : int; n_warns : int }

let summarize diags =
  List.fold_left
    (fun s d ->
      match d.severity with
      | Error -> { s with n_errors = s.n_errors + 1 }
      | Warn -> { s with n_warns = s.n_warns + 1 })
    { n_errors = 0; n_warns = 0 }
    diags

let exit_code diags =
  if List.exists (fun d -> rank d.severity = 0) diags then 1 else 0

let subject_to_json = function
  | Address a -> J.Obj [ ("kind", J.String "address"); ("address", J.Int a) ]
  | Site s -> J.Obj [ ("kind", J.String "site"); ("site", J.String s) ]
  | Structure s ->
      J.Obj [ ("kind", J.String "structure"); ("structure", J.String s) ]
  | Global -> J.Obj [ ("kind", J.String "global") ]

(* Evidence values are exact counts more often than not; emit them as JSON
   integers so consumers do not see "3.0" accesses. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then J.Int (int_of_float f)
  else J.Float f

let to_json d =
  J.Obj
    [
      ("rule", J.String d.rule);
      ("severity", J.String (severity_name d.severity));
      ("subject", subject_to_json d.subject);
      ("message", J.String d.message);
      ("evidence", J.Obj (List.map (fun (k, x) -> (k, number x)) d.evidence));
    ]

let summary_to_json s =
  J.Obj [ ("errors", J.Int s.n_errors); ("warnings", J.Int s.n_warns) ]

let pp_subject ppf = function
  | Address a -> Format.fprintf ppf " at %a" Memsim.Addr.pp a
  | Site s -> Format.fprintf ppf " at site %s" s
  | Structure s -> Format.fprintf ppf " in structure %s" s
  | Global -> ()

let pp ppf d =
  Format.fprintf ppf "%-5s %-32s%a: %s"
    (severity_name d.severity)
    d.rule pp_subject d.subject d.message;
  match d.evidence with
  | [] -> ()
  | ev ->
      Format.fprintf ppf " [%s]"
        (String.concat ", "
           (List.map
              (fun (k, x) ->
                if Float.is_integer x && Float.abs x < 1e15 then
                  Printf.sprintf "%s=%d" k (int_of_float x)
                else Printf.sprintf "%s=%.4f" k x)
              ev))
