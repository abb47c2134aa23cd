type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_to_buf b f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> Buffer.add_string b "null"
  | _ ->
      let s = Printf.sprintf "%.12g" f in
      Buffer.add_string b s;
      (* "%.12g" may print an integral float as "3"; JSON readers would
         then change its type on a round trip *)
      if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
        Buffer.add_string b ".0"

let to_buf ~minify b t =
  let nl indent =
    if not minify then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make indent ' ')
    end
  in
  let rec go indent = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f -> float_to_buf b f
    | String s -> escape_string b s
    | List [] -> Buffer.add_string b "[]"
    | List items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char b ',';
            nl (indent + 2);
            go (indent + 2) item)
          items;
        nl indent;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            nl (indent + 2);
            escape_string b k;
            Buffer.add_string b (if minify then ":" else ": ");
            go (indent + 2) v)
          fields;
        nl indent;
        Buffer.add_char b '}'
  in
  go 0 t

let to_string ?(minify = false) t =
  let b = Buffer.create 256 in
  to_buf ~minify b t;
  Buffer.contents b

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string t);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Access helpers                                                      *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_int = function Int n -> Some n | _ -> None
let to_str = function String s -> Some s | _ -> None
