type polarity = Pos | Neg

type t = { sym : Symbol.t; pol : polarity }

let pos sym = { sym; pol = Pos }
let neg sym = { sym; pol = Neg }
let event name = pos (Symbol.make name)
let complement_of name = neg (Symbol.make name)
let complement t = { t with pol = (match t.pol with Pos -> Neg | Neg -> Pos) }
let is_pos t = t.pol = Pos
let symbol t = t.sym
let rename f t = { t with sym = f t.sym }

let compare a b =
  match Symbol.compare a.sym b.sym with
  | 0 -> Stdlib.compare a.pol b.pol
  | c -> c

let equal a b = a.pol = b.pol && Symbol.equal a.sym b.sym
let hash t = (Symbol.hash t.sym * 2) + match t.pol with Pos -> 0 | Neg -> 1

let pp ppf t =
  match t.pol with
  | Pos -> Symbol.pp ppf t.sym
  | Neg -> Format.fprintf ppf "~%a" Symbol.pp t.sym

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
