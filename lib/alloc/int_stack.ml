type t = { mutable items : int array; mutable depth : int }

let create n = { items = Array.make (max n 1) 0; depth = 0 }
let length s = s.depth
let clear s = s.depth <- 0
let get s i = if i < 0 || i >= s.depth then invalid_arg "Int_stack.get" else s.items.(i)

let push s v =
  if s.depth = Array.length s.items then begin
    let bigger = Array.make (2 * s.depth) 0 in
    Array.blit s.items 0 bigger 0 s.depth;
    s.items <- bigger
  end;
  Array.unsafe_set s.items s.depth v;
  s.depth <- s.depth + 1

let pop s =
  if s.depth = 0 then invalid_arg "Int_stack.pop: empty stack";
  s.depth <- s.depth - 1;
  Array.unsafe_get s.items s.depth
