type t =
  | Zero
  | Top
  | Atom of Literal.t
  | Seq of t * t
  | Or of t * t
  | And of t * t
  | Always of t
  | Eventually of t
  | Not of t

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

let or_ a b =
  match (a, b) with
  | Zero, e | e, Zero -> e
  | Top, _ | _, Top -> Top
  | a, b -> Or (a, b)

let and_ a b =
  match (a, b) with
  | Zero, _ | _, Zero -> Zero
  | Top, e | e, Top -> e
  | a, b -> And (a, b)

let always = function Zero -> Zero | Top -> Top | e -> Always e
let eventually = function Zero -> Zero | Top -> Top | e -> Eventually e
let not_ = function Zero -> Top | Top -> Zero | e -> Not e
let or_all es = List.fold_right or_ es Zero
let and_all es = List.fold_right and_ es Top

let rec of_expr : Expr.t -> t = function
  | Expr.Zero -> Zero
  | Expr.Top -> Top
  | Expr.Atom l -> Atom l
  | Expr.Seq (a, b) -> seq (of_expr a) (of_expr b)
  | Expr.Choice (a, b) -> or_ (of_expr a) (of_expr b)
  | Expr.Conj (a, b) -> and_ (of_expr a) (of_expr b)

let rec literals = function
  | Zero | Top -> Literal.Set.empty
  | Atom l -> Literal.Set.of_list [ l; Literal.complement l ]
  | Seq (a, b) | Or (a, b) | And (a, b) ->
      Literal.Set.union (literals a) (literals b)
  | Always a | Eventually a | Not a -> literals a

let symbols t =
  Literal.Set.fold
    (fun l acc -> Symbol.Set.add (Literal.symbol l) acc)
    (literals t) Symbol.Set.empty

let rec pp_prec prec ppf t =
  let open Format in
  match t with
  | Zero -> pp_print_string ppf "0"
  | Top -> pp_print_string ppf "T"
  | Atom l -> Literal.pp ppf l
  | Or (a, b) ->
      if prec > 0 then fprintf ppf "(%a + %a)" (pp_prec 0) a (pp_prec 0) b
      else fprintf ppf "%a + %a" (pp_prec 0) a (pp_prec 0) b
  | And (a, b) ->
      if prec > 1 then fprintf ppf "(%a | %a)" (pp_prec 1) a (pp_prec 1) b
      else fprintf ppf "%a | %a" (pp_prec 1) a (pp_prec 1) b
  | Seq (a, b) -> fprintf ppf "%a.%a" (pp_prec 2) a (pp_prec 2) b
  | Always a -> fprintf ppf "[]%a" (pp_prec 3) a
  | Eventually a -> fprintf ppf "<>%a" (pp_prec 3) a
  | Not a -> fprintf ppf "!%a" (pp_prec 3) a

let pp ppf t = pp_prec 0 ppf t
let to_string t = Format.asprintf "%a" pp t
