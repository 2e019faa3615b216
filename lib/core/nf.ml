type product = Term.t list
type t = product list

let zero : t = []
let top : t = [ [] ]
let is_zero t = List.is_empty t
let is_top t = match t with [ [] ] -> true | _ -> false

(* --- product-level reasoning ------------------------------------------- *)

let product_literals p =
  List.fold_left (fun acc tm -> Literal.Set.union acc (Term.literals tm)) Literal.Set.empty p

(* A conjunction of terms is satisfiable iff (a) no symbol is required
   with both polarities and (b) the union of the terms' ordering
   constraints is acyclic.  Any topological order of the constraint graph
   is a witness trace. *)
let product_satisfiable p =
  let required =
    List.fold_left
      (fun acc tm -> List.fold_left (fun acc l -> Literal.Set.add l acc) acc tm)
      Literal.Set.empty p
  in
  let polarity_consistent =
    Literal.Set.for_all
      (fun l -> not (Literal.Set.mem (Literal.complement l) required))
      required
  in
  polarity_consistent
  &&
  (* Edges l1 -> l2 for consecutive literals of each term. *)
  let succs l =
    List.concat_map
      (fun tm ->
        let rec pairs = function
          | a :: (b :: _ as rest) ->
              if Literal.equal a l then [ b ] else pairs rest
          | _ -> []
        in
        pairs tm)
      p
  in
  let module M = Literal.Map in
  (* Colors: 0 unvisited, 1 on stack, 2 done. *)
  let colors = ref M.empty in
  let color l = try M.find l !colors with Not_found -> 0 in
  let rec acyclic_from l =
    match color l with
    | 1 -> false
    | 2 -> true
    | _ ->
        colors := M.add l 1 !colors;
        let ok = List.for_all acyclic_from (succs l) in
        colors := M.add l 2 !colors;
        ok
  in
  Literal.Set.for_all acyclic_from required

(* [sub] is a (not necessarily contiguous) subsequence of [sup]. *)
let rec subsequence sub sup =
  match (sub, sup) with
  | [], _ -> true
  | _, [] -> false
  | x :: sub', y :: sup' ->
      if Literal.equal x y then subsequence sub' sup' else subsequence sub sup'

let normalize_product terms =
  let terms = List.filter (fun tm -> not (Term.is_top tm)) terms in
  if not (product_satisfiable terms) then None
  else
    let implied tm =
      List.exists
        (fun other -> (not (Term.equal tm other)) && subsequence tm other)
        terms
    in
    let kept = List.sort_uniq Term.compare (List.filter (fun tm -> not (implied tm)) terms) in
    Some kept

(* --- sum-level reasoning ------------------------------------------------ *)

(* Conservative entailment between products: [p] implies [q] when every
   term of [q] is a subsequence of some term of [p]. *)
let product_implies p q =
  List.for_all (fun sigma -> List.exists (fun tau -> subsequence sigma tau) p) q

let compare_product = List.compare Term.compare

let normalize_sum products =
  let products = List.sort_uniq compare_product products in
  let absorbed p =
    List.exists
      (fun q -> compare_product p q <> 0 && product_implies p q)
      products
  in
  List.filter (fun p -> not (absorbed p)) products

let sum a b = normalize_sum (a @ b)

let conj a b =
  let pairs =
    List.concat_map (fun p -> List.filter_map (fun q -> normalize_product (p @ q)) b) a
  in
  normalize_sum pairs

let seq a b =
  (* (τ1|…|τm)·(σ1|…|σk) = ⋀_{i,j} τi·σj: a single split point serves all
     conjuncts, so sequencing distributes over the products. *)
  let terms p = if List.is_empty p then [ Term.top ] else p in
  let seq_products p q =
    let concats =
      List.concat_map (fun tau -> List.map (fun sigma -> Term.make (tau @ sigma)) (terms q)) (terms p)
    in
    if List.exists Option.is_none concats then None
    else normalize_product (List.map Option.get concats)
  in
  normalize_sum (List.concat_map (fun p -> List.filter_map (seq_products p) b) a)

let rec of_expr : Expr.t -> t = function
  | Expr.Zero -> zero
  | Expr.Top -> top
  | Expr.Atom l -> [ [ [ l ] ] ]
  | Expr.Choice (x, y) -> sum (of_expr x) (of_expr y)
  | Expr.Conj (x, y) -> conj (of_expr x) (of_expr y)
  | Expr.Seq (x, y) -> seq (of_expr x) (of_expr y)

let to_expr t =
  Expr.choice_all (List.map (fun p -> Expr.conj_all (List.map Term.to_expr p)) t)

let literals t =
  List.fold_left (fun acc p -> Literal.Set.union acc (product_literals p)) Literal.Set.empty t

let rename f t = List.map (List.map (Term.rename f)) t
let compare = List.compare compare_product
let equal a b = compare a b = 0
let pp ppf t = Expr.pp ppf (to_expr t)

module For_testing = struct
  let satisfies u t =
    List.exists (fun p -> List.for_all (fun tm -> Term.satisfies u tm) p) t
end
