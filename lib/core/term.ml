type t = Literal.t list

let make lits =
  let rec distinct seen = function
    | [] -> true
    | l :: rest ->
        let s = Literal.symbol l in
        (not (Symbol.Set.mem s seen)) && distinct (Symbol.Set.add s seen) rest
  in
  if distinct Symbol.Set.empty lits then Some lits else None

let top = []
let is_top t = List.is_empty t
let mem_symbol sym t = List.exists (fun l -> Symbol.equal (Literal.symbol l) sym) t

let literals t =
  List.fold_left
    (fun acc l -> Literal.Set.add l (Literal.Set.add (Literal.complement l) acc))
    Literal.Set.empty t

let satisfies u t =
  (* All literals occur on [u], in the term's relative order. *)
  let rec go u t =
    match (u, t) with
    | _, [] -> true
    | [], _ :: _ -> false
    | x :: u', l :: t' -> if Literal.equal x l then go u' t' else go u' t
  in
  go u t

let residue t e =
  match t with
  | l :: rest when Literal.equal l e -> Some rest
  | _ ->
      if mem_symbol (Literal.symbol e) t then None (* rules 7 and 8 *)
      else Some t (* rules 2 and 6 *)

let compare = List.compare Literal.compare
let equal a b = compare a b = 0

let rename f t = List.map (Literal.rename f) t
let to_expr t = Expr.seq_all (List.map Expr.atom t)
