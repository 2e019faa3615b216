type mask = int

type situation = A | B | C | D

let bit = function A -> 1 | B -> 2 | C -> 4 | D -> 8
let full = 15
let empty = 0
let compare_mask = Int.compare
let equal_mask = Int.equal
let of_situation s = bit s
let mem s m = m land bit s <> 0
let inter a b = a land b
let union a b = a lor b
let subset a b = a land lnot b = 0
let is_full m = m = full
let is_empty m = m = empty

let has = function Literal.Pos -> bit A | Literal.Neg -> bit B
let hasnt = function Literal.Pos -> bit B lor bit C lor bit D | Literal.Neg -> bit A lor bit C lor bit D
let will = function Literal.Pos -> bit A lor bit C | Literal.Neg -> bit B lor bit D
let possible_after_promise = will

let situation_of u i sym =
  let prefix = Trace.prefix i u in
  if Trace.mem (Literal.pos sym) prefix then A
  else if Trace.mem (Literal.neg sym) prefix then B
  else if Trace.mem (Literal.pos sym) u then C
  else if Trace.mem (Literal.neg sym) u then D
  else
    Fmt.invalid_arg "Symbol_state.situation_of: %a undecided on %a" Symbol.pp
      sym Trace.pp u

let eval u i sym m = mem (situation_of u i sym) m

let to_formula sym m =
  let e = Formula.atom (Literal.pos sym)
  and ne = Formula.atom (Literal.neg sym) in
  let box_e = Formula.always e
  and box_ne = Formula.always ne
  and dia_e = Formula.eventually e
  and dia_ne = Formula.eventually ne
  and not_e = Formula.not_ e
  and not_ne = Formula.not_ ne in
  (* Canonical rendering of each of the 16 masks in terms of the six
     primitive constraints (see Figure 3); situations are A=1 B=2 C=4
     D=8. *)
  match m land full with
  | 0 -> Formula.zero
  | 1 -> box_e
  | 2 -> box_ne
  | 3 -> Formula.or_ box_e box_ne
  | 4 -> Formula.and_ not_e dia_e
  | 5 -> dia_e
  | 6 -> Formula.or_ box_ne (Formula.and_ not_e dia_e)
  | 7 -> Formula.or_ dia_e box_ne
  | 8 -> Formula.and_ not_ne dia_ne
  | 9 -> Formula.or_ box_e (Formula.and_ not_ne dia_ne)
  | 10 -> dia_ne
  | 11 -> Formula.or_ box_e dia_ne
  | 12 -> Formula.and_ not_e not_ne
  | 13 -> not_ne
  | 14 -> not_e
  | _ -> Formula.top

module For_testing = struct
  let situation_of = situation_of
end
