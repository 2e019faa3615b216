(* The split-enumeration definition of the trace semantics (Semantics
   1–5): [e·f] holds when some decomposition [u = v @ w] has [v ⊨ e] and
   [w ⊨ f].  The oracle for the positional evaluator in
   [Wf_core.Semantics]. *)

open Wf_core

(* All decompositions [u = v @ w], in order of increasing [|v|]. *)
let splits u =
  let rec go rev_v w acc =
    let here = (List.rev rev_v, w) in
    match w with
    | [] -> List.rev (here :: acc)
    | x :: rest -> go (x :: rev_v) rest (here :: acc)
  in
  go [] u []

let rec satisfies u (e : Expr.t) =
  match e with
  | Expr.Zero -> false
  | Expr.Top -> true
  | Expr.Atom l -> Trace.mem l u
  | Expr.Choice (a, b) -> satisfies u a || satisfies u b
  | Expr.Conj (a, b) -> satisfies u a && satisfies u b
  | Expr.Seq (a, b) ->
      List.exists (fun (v, w) -> satisfies v a && satisfies w b) (splits u)

let violations deps u = List.filter (fun d -> not (satisfies u d)) deps
