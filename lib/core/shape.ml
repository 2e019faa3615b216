(* A rank's canonical symbol is named by the rank's three big-endian
   bytes, so [String.compare] on names orders ranks numerically.  The
   names never leave a memo key, so a clash with a real symbol's name
   is harmless: a key records only where each rank occurs. *)
let rank_name i =
  if i >= 1 lsl 24 then invalid_arg "Shape.canonical: too many symbols";
  String.init 3 (fun j -> Char.chr ((i lsr (8 * (2 - j))) land 0xff))

let ranks = ref [||]

let rank i =
  let have = Array.length !ranks in
  if i >= have then begin
    let old = !ranks in
    ranks :=
      Array.init (max (i + 1) (2 * have + 16)) (fun j ->
          if j < have then old.(j) else Symbol.make (rank_name j))
  end;
  !ranks.(i)

let renaming from onto =
  let tbl = Symbol_tbl.create (Array.length from) in
  Array.iteri (fun i sym -> Symbol_tbl.replace tbl sym (onto i)) from;
  Symbol_tbl.find tbl

let canonical syms = renaming syms rank
let between from onto = renaming from (Array.get onto)
