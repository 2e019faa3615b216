type product = {
  masks : Symbol_state.mask Symbol.Map.t;
  pending : Term.t list;
}

type t = product list

(* --- normalization ------------------------------------------------------ *)

let constrain sym mask masks =
  let current =
    match Symbol.Map.find_opt sym masks with
    | Some m -> m
    | None -> Symbol_state.full
  in
  Symbol.Map.add sym (Symbol_state.inter current mask) masks

let rec subsequence sub sup =
  match (sub, sup) with
  | [], _ -> true
  | _, [] -> false
  | x :: sub', y :: sup' ->
      if Literal.equal x y then subsequence sub' sup' else subsequence sub sup'

(* Fold singleton pending terms into masks, refine masks with the [◇]
   consequences of multi-literal pending terms, drop implied pending
   terms, and detect unsatisfiability. *)
let normalize_product masks pending =
  let rec split_pending singles multis = function
    | [] -> (singles, multis)
    | [ l ] :: rest -> split_pending (l :: singles) multis rest
    | ([] : Term.t) :: rest -> split_pending singles multis rest
    | tau :: rest -> split_pending singles (tau :: multis) rest
  in
  let singles, multis = split_pending [] [] pending in
  if not (Nf.product_satisfiable multis) then None
  else
    let masks =
      List.fold_left
        (fun masks l ->
          constrain (Literal.symbol l) (Symbol_state.will l.Literal.pol) masks)
        masks singles
    in
    let masks =
      List.fold_left
        (fun masks tau ->
          List.fold_left
            (fun masks l ->
              constrain (Literal.symbol l) (Symbol_state.will l.Literal.pol)
                masks)
            masks tau)
        masks multis
    in
    if Symbol.Map.exists (fun _ m -> Symbol_state.is_empty m) masks then None
    else
      let masks = Symbol.Map.filter (fun _ m -> not (Symbol_state.is_full m)) masks in
      let multis = List.sort_uniq Term.compare multis in
      let implied tau =
        List.exists
          (fun sigma -> (not (Term.equal tau sigma)) && subsequence tau sigma)
          multis
      in
      let pending = List.filter (fun tau -> not (implied tau)) multis in
      Some { masks; pending }

let compare_product a b =
  match Symbol.Map.compare Symbol_state.compare_mask a.masks b.masks with
  | 0 -> List.compare Term.compare a.pending b.pending
  | c -> c

(* [p] implies [q]: every constraint of [q] is tighter in [p]. *)
let product_implies p q =
  Symbol.Map.for_all
    (fun sym mq ->
      let mp =
        match Symbol.Map.find_opt sym p.masks with
        | Some m -> m
        | None -> Symbol_state.full
      in
      Symbol_state.subset mp mq)
    q.masks
  && List.for_all
       (fun sigma -> List.exists (fun tau -> subsequence sigma tau) p.pending)
       q.pending

(* Merge two products that differ only in one symbol's mask (and share
   pending terms): their union is the common product with the mask
   union, by distributivity. *)
let try_merge p q =
  if List.compare Term.compare p.pending q.pending <> 0 then None
  else
    let diff =
      Symbol.Map.merge
        (fun _ a b ->
          let a = Option.value a ~default:Symbol_state.full
          and b = Option.value b ~default:Symbol_state.full in
          if Symbol_state.equal_mask a b then None else Some (a, b))
        p.masks q.masks
    in
    match Symbol.Map.bindings diff with
    | [ (sym, (a, b)) ] ->
        let merged = constrain sym (Symbol_state.union a b) (Symbol.Map.remove sym p.masks) in
        let masks = Symbol.Map.filter (fun _ m -> not (Symbol_state.is_full m)) merged in
        Some { p with masks }
    | _ -> None

let rec merge_pass acc = function
  | [] -> List.rev acc
  | p :: rest -> (
      let rec find_partner seen = function
        | [] -> None
        | q :: qs -> (
            match try_merge p q with
            | Some m -> Some (m, List.rev_append seen qs)
            | None -> find_partner (q :: seen) qs)
      in
      match find_partner [] rest with
      | Some (m, rest') -> merge_pass acc (m :: rest')
      | None -> merge_pass (p :: acc) rest)

let normalize_sum products =
  match products with
  (* The empty and singleton sums are already canonical (their products
     are normalized individually); synthesis produces them constantly at
     recursion leaves, so skipping the passes matters. *)
  | [] | [ _ ] -> products
  | _ ->
  let products = List.sort_uniq compare_product products in
  let products = merge_pass [] products in
  let products = List.sort_uniq compare_product products in
  (* [p] can only imply [q] if [q]'s constrained symbols are a subset of
     [p]'s: normalized products carry no full masks, so a symbol [q]
     constrains and [p] does not refutes implication outright.  Tagging
     each product with its mask count turns most of the quadratic
     implication scan into an integer comparison; and [sort_uniq] has
     made the products pairwise distinct, so pointer inequality replaces
     the structural [compare_product] guard. *)
  let tagged =
    List.map (fun p -> (Symbol.Map.cardinal p.masks, p)) products
  in
  let absorbed cp p =
    List.exists
      (fun (cq, q) -> cq <= cp && p != q && product_implies p q)
      tagged
  in
  let products =
    List.filter_map (fun (cp, p) -> if absorbed cp p then None else Some p) tagged
  in
  (* A [⊤] product absorbs the whole sum. *)
  if
    List.exists
      (fun p -> Symbol.Map.is_empty p.masks && List.is_empty p.pending)
      products
  then [ { masks = Symbol.Map.empty; pending = [] } ]
  else products

(* --- construction ------------------------------------------------------- *)

let top = [ { masks = Symbol.Map.empty; pending = [] } ]
let bottom = []

let of_mask sym mask =
  match normalize_product (constrain sym mask Symbol.Map.empty) [] with
  | None -> bottom
  | Some p -> [ p ]

let has (l : Literal.t) = of_mask (Literal.symbol l) (Symbol_state.has l.pol)
let hasnt (l : Literal.t) = of_mask (Literal.symbol l) (Symbol_state.hasnt l.pol)
let will_term (tau : Term.t) =
  match normalize_product Symbol.Map.empty [ tau ] with
  | None -> bottom
  | Some p -> [ p ]

(* Conjoining a single-constraint product — the [has]/[hasnt]/[will]
   shape synthesis builds at every branch — needs none of
   [normalize_product]'s machinery on the other side: each of its
   products is already normalized, and intersecting one symbol's mask
   cannot disturb pending terms or the other symbols' masks.  This is
   the hot path of {!Synth}, which conjoins [has f] onto a finished
   subguard at every recursion node. *)
let constrain_one sym m q =
  let current =
    match Symbol.Map.find_opt sym q.masks with
    | Some c -> c
    | None -> Symbol_state.full
  in
  let inter = Symbol_state.inter m current in
  if Symbol_state.is_empty inter then None
  else if Symbol_state.is_full inter then
    Some { q with masks = Symbol.Map.remove sym q.masks }
  else Some { q with masks = Symbol.Map.add sym inter q.masks }

let single_constraint = function
  | [ { masks; pending = [] } ] -> (
      match (Symbol.Map.min_binding_opt masks, Symbol.Map.max_binding_opt masks) with
      | Some (s1, m1), Some (s2, _) when Symbol.equal s1 s2 -> Some (s1, m1)
      | _ -> None)
  | _ -> None

let is_top = function
  | [ p ] -> Symbol.Map.is_empty p.masks && List.is_empty p.pending
  | _ -> false

let conj a b =
  (* [⊤] and [⊥] units: [conj_all [g]] and friends would otherwise
     renormalize an already-canonical operand product by product. *)
  if is_top a then b
  else if is_top b then a
  else if List.is_empty a || List.is_empty b then bottom
  else
  match single_constraint a with
  | Some (sym, m) -> normalize_sum (List.filter_map (constrain_one sym m) b)
  | None -> (
      match single_constraint b with
      | Some (sym, m) -> normalize_sum (List.filter_map (constrain_one sym m) a)
      | None ->
          let pairs =
            List.concat_map
              (fun p ->
                List.filter_map
                  (fun q ->
                    let masks =
                      Symbol.Map.fold
                        (fun sym m acc -> constrain sym m acc)
                        q.masks p.masks
                    in
                    normalize_product masks (p.pending @ q.pending))
                  b)
              a
          in
          normalize_sum pairs)

let sum a b = normalize_sum (a @ b)

(* The sum a synthesis node builds — [first ∨ ⋁_f (has f ∧ g_f)] — in
   one normalization pass.  Conjoining [has f] onto each branch via
   {!conj} would canonicalize every branch sum only for the enclosing
   sum to re-sort, re-merge, and re-absorb the same products; here the
   branches contribute raw constrained products and the sum-level
   passes run once. *)
let branch_sum first branches =
  normalize_sum
    (List.fold_left
       (fun acc (l, g) ->
         let sym = Literal.symbol l in
         let m = Symbol_state.has l.Literal.pol in
         List.fold_left
           (fun acc q ->
             match constrain_one sym m q with
             | Some p -> p :: acc
             | None -> acc)
           acc g)
       first branches)
let conj_all gs = List.fold_left conj top gs

(* One normalization over all summands, not a fold of pairwise [sum]s:
   sort/merge/absorb are quadratic in the sum's width, so renormalizing
   the growing accumulator k times would pay that k times over. *)
let sum_all gs = normalize_sum (List.concat gs)

let will_nf (nf_ : Nf.t) =
  (* ◇ distributes over + and | because satisfaction is monotone along a
     trace: take the max witness index. *)
  sum_all
    (List.map
       (fun prod -> conj_all (List.map will_term prod))
       nf_)

(* [◇E] memoized by the normal form's interned id: guard synthesis
   computes [will_nf] of a residual at every recursion node, and the
   ~n² nodes of a workflow share only ~n distinct residuals, so the
   sum/conj normalization here dominated synthesis time. *)
let will_tbl : (Intern.id, t) Hashtbl.t = Hashtbl.create 1024
let () = Intern.register_clearer (fun () -> Hashtbl.reset will_tbl)

let will_nf_interned nf_ id =
  match Hashtbl.find_opt will_tbl id with
  | Some g -> g
  | None ->
      let g = will_nf nf_ in
      Hashtbl.add will_tbl id g;
      g

(* --- inspection --------------------------------------------------------- *)

let is_true g =
  match g with
  | [ p ] -> Symbol.Map.is_empty p.masks && List.is_empty p.pending
  | _ -> false

let is_false g = List.is_empty g
let products g = g

let symbols g =
  List.fold_left
    (fun acc p ->
      let acc = Symbol.Map.fold (fun sym _ a -> Symbol.Set.add sym a) p.masks acc in
      List.fold_left
        (fun a tau ->
          List.fold_left
            (fun a l -> Symbol.Set.add (Literal.symbol l) a)
            a tau)
        acc p.pending)
    Symbol.Set.empty g

let size g =
  List.fold_left
    (fun acc p -> acc + Symbol.Map.cardinal p.masks + List.length p.pending)
    0 g

(* --- semantics ---------------------------------------------------------- *)

let eval_product u i p =
  Symbol.Map.for_all (fun sym m -> Symbol_state.eval u i sym m) p.masks
  && List.for_all (fun tau -> Term.satisfies u tau) p.pending

let eval u i g = List.exists (eval_product u i) g

let product_formula p =
  (* Masks that merely restate the [◇] consequence of a pending term are
     noise when printing. *)
  let implied_by_pending sym m =
    List.exists
      (fun tau ->
        List.exists
          (fun (l : Literal.t) ->
            Symbol.equal (Literal.symbol l) sym
            && m = Symbol_state.will l.pol)
          tau)
      p.pending
  in
  Formula.and_all
    (Symbol.Map.fold
       (fun sym m acc ->
         if implied_by_pending sym m then acc
         else Symbol_state.to_formula sym m :: acc)
       p.masks
       (List.map
          (fun tau -> Formula.eventually (Formula.of_expr (Term.to_expr tau)))
          p.pending))

let to_formula g = Formula.or_all (List.map product_formula g)

(* --- assimilation ------------------------------------------------------- *)

let assimilate_product_occurred (x : Literal.t) p =
  let sym = Literal.symbol x in
  let situation =
    match x.pol with Literal.Pos -> Symbol_state.A | Literal.Neg -> Symbol_state.B
  in
  let mask_ok =
    match Symbol.Map.find_opt sym p.masks with
    | None -> true
    | Some m -> Symbol_state.mem situation m
  in
  if not mask_ok then None
  else
    let masks = Symbol.Map.remove sym p.masks in
    let rec residuate acc = function
      | [] -> Some (List.rev acc)
      | tau :: rest -> (
          match Term.residue tau x with
          | None -> None
          | Some tau' -> residuate (tau' :: acc) rest)
    in
    match residuate [] p.pending with
    | None -> None
    | Some pending -> normalize_product masks pending

let assimilate_occurred x g =
  normalize_sum (List.filter_map (assimilate_product_occurred x) g)

let assimilate_product_promise (x : Literal.t) p =
  let sym = Literal.symbol x in
  match Symbol.Map.find_opt sym p.masks with
  | None -> Some p
  | Some m ->
      let possible = Symbol_state.possible_after_promise x.pol in
      if Symbol_state.subset possible m then
        (* All reachable situations satisfy the constraint: discharged. *)
        Some { p with masks = Symbol.Map.remove sym p.masks }
      else
        let m' = Symbol_state.inter m possible in
        if Symbol_state.is_empty m' then None
        else Some { p with masks = Symbol.Map.add sym m' p.masks }

let assimilate_promise x g =
  normalize_sum (List.filter_map (assimilate_product_promise x) g)

(* --- comparison and printing ------------------------------------------- *)

let compare = List.compare compare_product
let equal a b = compare a b = 0
let pp ppf g = Formula.pp ppf (to_formula g)

let map_symbols f g =
  let map_lit (l : Literal.t) = { l with Literal.sym = f l.Literal.sym } in
  normalize_sum
    (List.filter_map
       (fun p ->
         let masks =
           Symbol.Map.fold
             (fun sym m acc -> constrain (f sym) m acc)
             p.masks Symbol.Map.empty
         in
         match
           normalize_product masks (List.map (List.map map_lit) p.pending)
         with
         | Some p' -> Some p'
         | None -> None)
       g)

let rename f g =
  List.map
    (fun p ->
      {
        masks =
          Symbol.Map.fold
            (fun sym m acc -> Symbol.Map.add (f sym) m acc)
            p.masks Symbol.Map.empty;
        pending = List.map (Term.rename f) p.pending;
      })
    g

(* --- interned ids -------------------------------------------------------- *)

(* Guards contain Symbol.Map values, whose balanced-tree shape depends
   on construction order, so the polymorphic hash is not stable across
   structurally equal guards; the interner is keyed on [compare]
   instead.  It fills with every guard something asks a uid for: trace
   records name residual guards by uid, and [Gtable.lookup] keys its
   compiled-table memo by uid on every lookup.  It is dropped by
   [Intern.clear_memos] alongside the other memo tables. *)
module GMap = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

let uid_table = ref GMap.empty
let uid_next = ref 0

let () =
  Intern.register_clearer (fun () ->
      uid_table := GMap.empty;
      uid_next := 0)

let uid g =
  match GMap.find_opt g !uid_table with
  | Some id -> id
  | None ->
      let id = !uid_next in
      uid_next := id + 1;
      uid_table := GMap.add g id !uid_table;
      id

module For_testing = struct
  let will (l : Literal.t) = of_mask (Literal.symbol l) (Symbol_state.will l.pol)

  let equivalent ~alphabet a b =
    List.for_all
      (fun u ->
        let n = Trace.length u in
        let rec all i = i > n || (eval u i a = eval u i b && all (i + 1)) in
        all 0)
      (Universe.maximal_traces alphabet)
end
