let product p e =
  (* Rule 5: residuation distributes over [|]; a [0] conjunct kills the
     product. *)
  let rec go acc = function
    | [] -> Nf.normalize_product acc
    | tm :: rest -> (
        match Term.residue tm e with
        | None -> None
        | Some tm' -> go (tm' :: acc) rest)
  in
  go [] p

let nf_naive (t : Nf.t) e : Nf.t =
  (* Rules 1 and 4: residuation distributes over [+]; [0] summands drop. *)
  List.fold_left
    (fun acc p -> match product p e with None -> acc | Some p' -> Nf.sum acc [ p' ])
    Nf.zero t

(* --- memoized fast path -------------------------------------------------
   Keys are pairs of interned ids, so a hit costs one shallow intern per
   layer plus one int-pair hash.  Tables are process-wide (registered
   with {!Intern.clear_memos}); residuals recur across events of a run,
   so sharing them is where the speedup comes from. *)

module Pair_tbl = Intern.Pair_tbl

(* The memo stores each residual together with its interned id, so
   callers that chain residuations (guard synthesis, automaton
   construction) get the next memo key for free instead of re-walking
   the result's structure.  There is deliberately no term-level memo
   below this one: [Term.residue] is a plain list scan, cheaper than
   the [Intern.term] walk a per-term key would cost on every probe, so
   a miss here just recomputes terms naively. *)
let nf_memo : (Nf.t * Intern.id) Pair_tbl.t = Pair_tbl.create 4096
let () = Intern.register_clearer (fun () -> Pair_tbl.reset nf_memo)

let nf_interned (t : Nf.t) t_id e e_id : Nf.t * Intern.id =
  let key = (t_id, e_id) in
  match Pair_tbl.find_opt nf_memo key with
  | Some entry -> entry
  | None ->
      let r = nf_naive t e in
      let entry = (r, Intern.nf r) in
      Pair_tbl.add nf_memo key entry;
      entry

let nf (t : Nf.t) e : Nf.t =
  if not (Intern.enabled ()) then nf_naive t e
  else fst (nf_interned t (Intern.nf t) e (Intern.literal e))

let by_trace t u = List.fold_left nf t u

module For_testing = struct
  let symbolic d e = Nf.to_expr (nf (Nf.of_expr d) e)

  let semantic alphabet d e =
    let us = Universe.traces alphabet in
    let sat_e = List.filter (fun u -> Semantics.satisfies u (Expr.Atom e)) us in
    List.filter
      (fun v ->
        List.for_all
          (fun u ->
            match Trace.append u v with
            | None -> true
            | Some uv -> Semantics.satisfies uv d)
          sat_e)
      us

  let agrees_with_oracle ?alphabet d e =
    let alpha =
      match alphabet with
      | Some s -> Symbol.Set.add (Literal.symbol e) s
      | None -> Symbol.Set.add (Literal.symbol e) (Expr.symbols d)
    in
    let residual = symbolic d e in
    let oracle = semantic alpha d e in
    let relevant v = not (Symbol.Set.mem (Literal.symbol e) (Trace.symbols v)) in
    List.for_all
      (fun v ->
        Semantics.satisfies v residual = List.exists (Trace.equal v) oracle)
      (List.filter relevant (Universe.traces alpha))
end
