type param = Var of string | Const of string

type atom = { base : string; pol : Literal.polarity; params : param list }

type t =
  | Zero
  | Top
  | Atom of atom
  | Seq of t * t
  | Choice of t * t
  | Conj of t * t

let atom ?(pol = Literal.Pos) base params = Atom { base; pol; params }
let seq a b = Seq (a, b)
let choice_all = function
  | [] -> Zero
  | x :: rest -> List.fold_left (fun acc e -> Choice (acc, e)) x rest

let rec vars = function
  | Zero | Top -> []
  | Atom a ->
      List.filter_map (function Var v -> Some v | Const _ -> None) a.params
  | Seq (a, b) | Choice (a, b) | Conj (a, b) ->
      let va = vars a in
      va @ List.filter (fun v -> not (List.mem v va)) (vars b)

let vars t =
  let rec dedup seen = function
    | [] -> []
    | v :: rest ->
        if List.mem v seen then dedup seen rest else v :: dedup (v :: seen) rest
  in
  dedup [] (vars t)

let rec of_expr : Expr.t -> t = function
  | Expr.Zero -> Zero
  | Expr.Top -> Top
  | Expr.Atom l ->
      Atom
        {
          base = Symbol.base (Literal.symbol l);
          pol = l.Literal.pol;
          params = List.map (fun a -> Const a) (Symbol.args (Literal.symbol l));
        }
  | Expr.Seq (a, b) -> Seq (of_expr a, of_expr b)
  | Expr.Choice (a, b) -> Choice (of_expr a, of_expr b)
  | Expr.Conj (a, b) -> Conj (of_expr a, of_expr b)

let symbol_of_atom valuation a =
  let args =
    List.map (function Const c -> c | Var v -> valuation v) a.params
  in
  match args with
  | [] -> Symbol.make a.base
  | args -> Symbol.parametrized a.base args

let literal_of_atom valuation a : Literal.t =
  { Literal.sym = symbol_of_atom valuation a; pol = a.pol }

let ground valuation t =
  let rec go = function
    | Zero -> Expr.Zero
    | Top -> Expr.Top
    | Atom a -> Expr.Atom (literal_of_atom valuation a)
    | Seq (a, b) -> Expr.seq (go a) (go b)
    | Choice (a, b) -> Expr.choice (go a) (go b)
    | Conj (a, b) -> Expr.conj (go a) (go b)
  in
  go t

let instantiate bindings t =
  ground
    (fun v ->
      match List.assoc_opt v bindings with
      | Some value -> value
      | None -> invalid_arg ("Ptemplate.instantiate: unbound variable " ^ v))
    t

let var_marker v = "?" ^ v
let skeleton t = ground var_marker t

let match_symbol a sym =
  if not (String.equal a.base (Symbol.base sym)) then None
  else
    let args = Symbol.args sym in
    if List.length args <> List.length a.params then None
    else
      let rec go bindings params args =
        match (params, args) with
        | [], [] -> Some bindings
        | Const c :: ps, v :: vs -> if String.equal c v then go bindings ps vs else None
        | Var x :: ps, v :: vs -> (
            match List.assoc_opt x bindings with
            | Some v' -> if String.equal v v' then go bindings ps vs else None
            | None -> go ((x, v) :: bindings) ps vs)
        | _ -> None
      in
      go [] a.params args

let rec atoms_raw = function
  | Zero | Top -> []
  | Atom a -> [ a ]
  | Seq (a, b) | Choice (a, b) | Conj (a, b) -> atoms_raw a @ atoms_raw b

let atoms t = List.sort_uniq Stdlib.compare (atoms_raw t)

let mutual_exclusion_template ~t1 ~t2 =
  let b1 = atom ("b_" ^ t1) [ Var "x" ]
  and e1 = atom ("e_" ^ t1) [ Var "x" ]
  and ne1 = atom ~pol:Literal.Neg ("e_" ^ t1) [ Var "x" ]
  and b2 = atom ("b_" ^ t2) [ Var "y" ]
  and nb2 = atom ~pol:Literal.Neg ("b_" ^ t2) [ Var "y" ] in
  choice_all [ seq b2 b1; ne1; nb2; seq e1 b2 ]

let pp_param ppf = function
  | Var v -> Format.fprintf ppf "%s" v
  | Const c -> Format.fprintf ppf "%S" c

let pp_atom ppf a =
  let prefix = match a.pol with Literal.Pos -> "" | Literal.Neg -> "~" in
  Format.fprintf ppf "%s%s[%a]" prefix a.base
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       pp_param)
    a.params

let rec pp_prec prec ppf t =
  let open Format in
  match t with
  | Zero -> pp_print_string ppf "0"
  | Top -> pp_print_string ppf "T"
  | Atom a -> pp_atom ppf a
  | Choice (a, b) ->
      if prec > 0 then fprintf ppf "(%a + %a)" (pp_prec 0) a (pp_prec 0) b
      else fprintf ppf "%a + %a" (pp_prec 0) a (pp_prec 0) b
  | Conj (a, b) ->
      if prec > 1 then fprintf ppf "(%a | %a)" (pp_prec 1) a (pp_prec 1) b
      else fprintf ppf "%a | %a" (pp_prec 1) a (pp_prec 1) b
  | Seq (a, b) -> fprintf ppf "%a.%a" (pp_prec 2) a (pp_prec 2) b

let pp ppf t = pp_prec 0 ppf t

module For_testing = struct
  let of_expr = of_expr
end
