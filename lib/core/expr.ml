type t =
  | Zero
  | Top
  | Atom of Literal.t
  | Seq of t * t
  | Choice of t * t
  | Conj of t * t

let zero = Zero
let top = Top
let atom l = Atom l
let event name = Atom (Literal.event name)
let complement name = Atom (Literal.complement_of name)

let seq a b =
  match (a, b) with
  | Zero, _ | _, Zero -> Zero
  | Top, e | e, Top -> e
  | a, b -> Seq (a, b)

let choice a b =
  match (a, b) with
  | Zero, e | e, Zero -> e
  | Top, _ | _, Top -> Top
  | a, b -> Choice (a, b)

let conj a b =
  match (a, b) with
  | Zero, _ | _, Zero -> Zero
  | Top, e | e, Top -> e
  | a, b -> Conj (a, b)

let seq_all es = List.fold_right seq es Top
let choice_all es = List.fold_right choice es Zero
let conj_all es = List.fold_right conj es Top

let rec literals = function
  | Zero | Top -> Literal.Set.empty
  | Atom l -> Literal.Set.of_list [ l; Literal.complement l ]
  | Seq (a, b) | Choice (a, b) | Conj (a, b) ->
      Literal.Set.union (literals a) (literals b)

let symbols e =
  Literal.Set.fold
    (fun l acc -> Symbol.Set.add (Literal.symbol l) acc)
    (literals e) Symbol.Set.empty

let rec rename f = function
  | (Zero | Top) as e -> e
  | Atom l -> Atom (Literal.rename f l)
  | Seq (a, b) -> Seq (rename f a, rename f b)
  | Choice (a, b) -> Choice (rename f a, rename f b)
  | Conj (a, b) -> Conj (rename f a, rename f b)

(* Structural compare: [Stdlib.compare] would walk [Literal.t] records
   polymorphically, which is slower and fragile if literals ever gain
   non-comparable payloads. *)
let rec compare a b =
  let tag = function
    | Zero -> 0
    | Top -> 1
    | Atom _ -> 2
    | Seq _ -> 3
    | Choice _ -> 4
    | Conj _ -> 5
  in
  match (a, b) with
  | Zero, Zero | Top, Top -> 0
  | Atom x, Atom y -> Literal.compare x y
  | Seq (a1, a2), Seq (b1, b2)
  | Choice (a1, a2), Choice (b1, b2)
  | Conj (a1, a2), Conj (b1, b2) ->
      let c = compare a1 b1 in
      if c <> 0 then c else compare a2 b2
  | _ -> Int.compare (tag a) (tag b)

let equal_syntactic a b = compare a b = 0

(* Full structural hash, consistent with [compare]: unlike the
   depth-capped polymorphic hash it sees every node, so dependencies
   sharing a long common prefix still spread over a memo table. *)
let rec hash = function
  | Zero -> 1
  | Top -> 2
  | Atom l ->
      (Symbol.hash l.Literal.sym * 4)
      + (match l.Literal.pol with Literal.Pos -> 3 | Literal.Neg -> 4)
  | Seq (a, b) -> node 5 a b
  | Choice (a, b) -> node 6 a b
  | Conj (a, b) -> node 7 a b

and node tag a b = ((((tag * 31) + hash a) * 31) + hash b) land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal_syntactic
  let hash = hash
end)

(* Precedence: + (lowest), |, · (highest); parenthesize as needed. *)
let rec pp_prec prec ppf e =
  let open Format in
  match e with
  | Zero -> pp_print_string ppf "0"
  | Top -> pp_print_string ppf "T"
  | Atom l -> Literal.pp ppf l
  | Choice (a, b) ->
      if prec > 0 then fprintf ppf "(%a + %a)" (pp_prec 0) a (pp_prec 0) b
      else fprintf ppf "%a + %a" (pp_prec 0) a (pp_prec 0) b
  | Conj (a, b) ->
      if prec > 1 then fprintf ppf "(%a | %a)" (pp_prec 1) a (pp_prec 1) b
      else fprintf ppf "%a | %a" (pp_prec 1) a (pp_prec 1) b
  | Seq (a, b) -> fprintf ppf "%a.%a" (pp_prec 2) a (pp_prec 2) b

let pp ppf e = pp_prec 0 ppf e
let to_string e = Format.asprintf "%a" pp e
