(* Satisfaction is monotone in the segment: every construct only asks
   for literals to occur somewhere, in some order, so a segment that
   satisfies [e] still does when it grows at either end.  Hence each
   expression has a least end [ends first lo e] over the segments
   starting at [lo], and [e·f] is satisfied on [lo, hi) iff [f] is
   satisfied from the least cut point where [e] is ([ends] is monotone
   in [lo]).  One walk of the expression decides it, with no split
   copied. *)

let never = max_int

(* The least [hi] such that the segment [lo, hi) satisfies [e], or
   [never]; [first l lo] is the first position at or after [lo] where
   [l] occurs, or [never]. *)
let rec ends first lo (e : Expr.t) =
  match e with
  | Expr.Zero -> never
  | Expr.Top -> lo
  | Expr.Atom l ->
      let p = first l lo in
      if p = never then never else p + 1
  | Expr.Choice (a, b) ->
      let ea = ends first lo a in
      if ea = lo then lo else min ea (ends first lo b)
  | Expr.Conj (a, b) ->
      let ea = ends first lo a in
      if ea = never then never else max ea (ends first lo b)
  | Expr.Seq (a, b) ->
      let cut = ends first lo a in
      if cut = never then never else ends first cut b

(* A single check scans the list. *)
let scan u l lo =
  let rec go i = function
    | [] -> never
    | x :: rest -> if i >= lo && Literal.equal x l then i else go (i + 1) rest
  in
  go 0 u

let satisfies u e = ends (scan u) 0 e <> never

type index = Literal.t -> int -> int

let rec first_from lo = function
  | [] -> never
  | p :: rest -> if p >= lo then p else first_from lo rest

(* Checks sharing a trace look each literal's positions up (ascending
   once built). *)
let index u =
  let positions = Literal.Tbl.create 32 in
  List.iteri
    (fun i l ->
      let ps = Option.value (Literal.Tbl.find_opt positions l) ~default:[] in
      Literal.Tbl.replace positions l (i :: ps))
    u;
  Literal.Tbl.filter_map_inplace (fun _ ps -> Some (List.rev ps)) positions;
  fun l lo ->
    match Literal.Tbl.find_opt positions l with
    | None -> never
    | Some ps -> first_from lo ps

let holds ix e = ends ix 0 e <> never

let denotation alphabet e =
  List.filter (fun u -> satisfies u e) (Universe.traces alphabet)

let maximal_denotation alphabet e =
  List.filter (fun u -> satisfies u e) (Universe.maximal_traces alphabet)
