(* Randomized property suites over the event algebra, with a pinned seed
   (see Helpers.qprop): every law runs on >= 200 random expressions.

   - Theorem 1 ("Equations 1 through 8 are sound"): for every literal of
     a random expression, the symbolic residual agrees with the
     model-theoretic oracle of Semantics 6.
   - Algebraic laws, decided semantically via Equiv over the joint
     alphabet: associativity and commutativity of + and |, associativity
     of sequence, distributivity of sequence and conjunction over
     choice, and the fixpoints 0/e = 0, T/e = T. *)

open Wf_core
open Helpers

let theorem1 =
  qprop ~count:200 "Theorem 1: D/e agrees with the semantic oracle" gen_expr
    (fun d ->
      Literal.Set.for_all (fun l -> Residue.For_testing.agrees_with_oracle d l)
        (Expr.literals d))

let assoc_choice =
  qprop ~count:200 "(a+b)+c = a+(b+c)" gen_expr_triple (fun (a, b, c) ->
      Equiv.equal
        (Expr.choice (Expr.choice a b) c)
        (Expr.choice a (Expr.choice b c)))

let assoc_seq =
  qprop ~count:200 "(a.b).c = a.(b.c)" gen_expr_triple (fun (a, b, c) ->
      Equiv.equal (Expr.seq (Expr.seq a b) c) (Expr.seq a (Expr.seq b c)))

let assoc_conj =
  qprop ~count:200 "(a|b)|c = a|(b|c)" gen_expr_triple (fun (a, b, c) ->
      Equiv.equal (Expr.conj (Expr.conj a b) c) (Expr.conj a (Expr.conj b c)))

let comm_choice =
  qprop ~count:200 "a+b = b+a" gen_expr_pair (fun (a, b) ->
      Equiv.equal (Expr.choice a b) (Expr.choice b a))

let comm_conj =
  qprop ~count:200 "a|b = b|a" gen_expr_pair (fun (a, b) ->
      Equiv.equal (Expr.conj a b) (Expr.conj b a))

let idem_choice =
  qprop ~count:200 "a+a = a" gen_expr (fun a ->
      Equiv.equal (Expr.choice a a) a)

let distrib_seq_left =
  qprop ~count:200 "a.(b+c) = a.b + a.c" gen_expr_triple (fun (a, b, c) ->
      Equiv.equal
        (Expr.seq a (Expr.choice b c))
        (Expr.choice (Expr.seq a b) (Expr.seq a c)))

let distrib_seq_right =
  qprop ~count:200 "(a+b).c = a.c + b.c" gen_expr_triple (fun (a, b, c) ->
      Equiv.equal
        (Expr.seq (Expr.choice a b) c)
        (Expr.choice (Expr.seq a c) (Expr.seq b c)))

let distrib_conj =
  qprop ~count:200 "a|(b+c) = a|b + a|c" gen_expr_triple (fun (a, b, c) ->
      Equiv.equal
        (Expr.conj a (Expr.choice b c))
        (Expr.choice (Expr.conj a b) (Expr.conj a c)))

(* Residuation fixes the lattice extremes: 0/e = 0 and T/e = T
   (Residuation rules 1 and 2), checked semantically over the literal's
   own alphabet. *)
let residue_zero =
  qprop ~count:200 "0/e = 0" gen_literal (fun l ->
      let alpha = Symbol.Set.singleton (Literal.symbol l) in
      Equiv.equal ~alphabet:alpha (Residue.For_testing.symbolic Expr.zero l) Expr.zero)

let residue_top =
  qprop ~count:200 "T/e = T" gen_literal (fun l ->
      let alpha = Symbol.Set.singleton (Literal.symbol l) in
      Equiv.equal ~alphabet:alpha (Residue.For_testing.symbolic Expr.top l) Expr.top)

(* Residuating by the same literal twice is the same as once: after
   [e] has occurred, a second occurrence cannot exist in U_E, so the
   residual is a fixpoint of [/e] on the realizable continuations. *)
let residue_idempotent =
  qprop ~count:200 "(D/e)/e = D/e on realizable continuations" gen_expr
    (fun d ->
      Literal.Set.for_all
        (fun l ->
          let once = Residue.For_testing.symbolic d l in
          let twice = Residue.For_testing.symbolic once l in
          let rest =
            Symbol.Set.remove (Literal.symbol l) (Expr.symbols d)
          in
          Equiv.equal ~alphabet:rest once twice)
        (Expr.literals d))

let suite =
  [
    theorem1;
    assoc_choice;
    assoc_seq;
    assoc_conj;
    comm_choice;
    comm_conj;
    idem_choice;
    distrib_seq_left;
    distrib_seq_right;
    distrib_conj;
    residue_zero;
    residue_top;
    residue_idempotent;
  ]
