open Wf_core

let alphabet_disjoint d e =
  Literal.Set.is_empty (Literal.Set.inter (Expr.literals d) (Expr.literals e))

let joint_alphabet_with ds lit =
  Symbol.Set.add (Literal.symbol lit)
    (List.fold_left
       (fun acc d -> Symbol.Set.union acc (Expr.symbols d))
       Symbol.Set.empty ds)

let check_theorem2 d e lit =
  (not (alphabet_disjoint d e))
  ||
  let alphabet = joint_alphabet_with [ d; e ] lit in
  Guard.For_testing.equivalent ~alphabet
    (Synth.guard (Expr.choice d e) lit)
    (Guard.sum (Synth.guard d lit) (Synth.guard e lit))

let check_lemma3 d lit g =
  Symbol.equal (Literal.symbol g) (Literal.symbol lit)
  ||
  let alphabet =
    Symbol.Set.add (Literal.symbol g) (joint_alphabet_with [ d ] lit)
  in
  let lhs = Synth.guard d lit in
  let rhs =
    Guard.sum
      (Guard.conj (Guard.hasnt g) (Synth.guard d lit))
      (Guard.conj (Guard.has g) (Synth.guard (Residue.For_testing.symbolic d g) lit))
  in
  Guard.For_testing.equivalent ~alphabet lhs rhs

let check_theorem4 d e lit =
  (not (alphabet_disjoint d e))
  ||
  let alphabet = joint_alphabet_with [ d; e ] lit in
  Guard.For_testing.equivalent ~alphabet
    (Synth.guard (Expr.conj d e) lit)
    (Guard.conj (Synth.guard d lit) (Synth.guard e lit))

let check_lemma5 d lit =
  (* Lemma 5 characterizes the guards of the dependency's own events;
     for a literal outside Γ_D the path sum is empty while the guard is
     not, so the statement is restricted to participating events. *)
  (not (Literal.Set.mem lit (Expr.literals d)))
  ||
  let alphabet = joint_alphabet_with [ d ] lit in
  Guard.For_testing.equivalent ~alphabet (Synth.guard d lit) (Paths.For_testing.guard_via_paths d lit)

let fast_guard deps lit = (Compile.plan (Compile.compile deps) lit).guard
