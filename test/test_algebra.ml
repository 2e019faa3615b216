(* The event algebra E: syntax, semantics, normal forms, equivalence. *)

open Wf_core
open Helpers

let sat events expr = Semantics.satisfies (Trace.of_events events) expr

(* --- Semantics 1-5 ------------------------------------------------------- *)

let test_atom_semantics () =
  checkb "e on ⟨e⟩" (sat [ "e" ] e);
  checkb "e on ⟨f e⟩" (sat [ "f"; "e" ] e);
  checkb "not e on ⟨f⟩" (not (sat [ "f" ] e));
  checkb "~e on ⟨~e⟩" (sat [ "~e" ] ne);
  checkb "not ~e on ⟨e⟩" (not (sat [ "e" ] ne))

let test_seq_semantics () =
  let ef = Expr.seq e f in
  checkb "e.f on ⟨e f⟩" (sat [ "e"; "f" ] ef);
  checkb "e.f not on ⟨f e⟩" (not (sat [ "f"; "e" ] ef));
  checkb "e.f on ⟨e g f⟩" (sat [ "e"; "g"; "f" ] ef);
  checkb "e.f not on ⟨e⟩" (not (sat [ "e" ] ef))

let test_choice_conj_semantics () =
  checkb "e+f on ⟨f⟩" (sat [ "f" ] (Expr.choice e f));
  checkb "e|f needs both" (not (sat [ "f" ] (Expr.conj e f)));
  checkb "e|f on ⟨f e⟩" (sat [ "f"; "e" ] (Expr.conj e f));
  checkb "T everywhere" (sat [] Expr.top);
  checkb "0 nowhere" (not (sat [ "e" ] Expr.zero))

let test_example1_denotations () =
  (* Example 1: ⟦e⟧ has 5 traces, ⟦e·f⟧ = {⟨ef⟩}. *)
  check Alcotest.int "|⟦e⟧|" 5 (List.length (Semantics.denotation alpha_ef e));
  check
    Alcotest.(list trace_testable)
    "⟦e.f⟧"
    [ Trace.of_events [ "e"; "f" ] ]
    (Semantics.denotation alpha_ef (Expr.seq e f));
  checkb "e + ~e is not T (Example 1)" (not (Equiv.is_top (Expr.choice e ne)));
  checkb "e | ~e is 0 (Example 1)" (Equiv.is_zero (Expr.conj e ne))

let test_klein_examples () =
  (* Example 2: D→ satisfied iff e absent or f present. *)
  let d = Catalog.d_arrow in
  checkb "⟨~e⟩ ⊨ D→" (sat [ "~e" ] d);
  checkb "⟨e f⟩ ⊨ D→" (sat [ "e"; "f" ] d);
  checkb "⟨f e⟩ ⊨ D→ (order free)" (sat [ "f"; "e" ] d);
  checkb "⟨e ~f⟩ ⊭ D→" (not (sat [ "e"; "~f" ] d));
  (* Example 3: D< forbids f-before-e when both occur. *)
  let dlt = Catalog.d_lt in
  checkb "⟨e f⟩ ⊨ D<" (sat [ "e"; "f" ] dlt);
  checkb "⟨f e⟩ ⊭ D<" (not (sat [ "f"; "e" ] dlt));
  checkb "⟨~e f⟩ ⊨ D<" (sat [ "~e"; "f" ] dlt);
  checkb "⟨~f e⟩ ⊨ D<" (sat [ "~f"; "e" ] dlt)

(* --- algebraic laws (Section 3.2) ---------------------------------------- *)

let law name a b = checkb name (Equiv.equal a b)

let test_operator_laws () =
  let x = Expr.seq e f and y = Expr.choice f g and z = Expr.conj e g in
  law "+ associative"
    (Expr.choice x (Expr.choice y z))
    (Expr.choice (Expr.choice x y) z);
  law "+ commutative" (Expr.choice x y) (Expr.choice y x);
  law "| associative"
    (Expr.conj x (Expr.conj y z))
    (Expr.conj (Expr.conj x y) z);
  law "| commutative" (Expr.conj x y) (Expr.conj y x);
  law ". associative"
    (Expr.Seq (e, Expr.Seq (f, g)))
    (Expr.Seq (Expr.Seq (e, f), g));
  law ". distributes over +"
    (Expr.Seq (Expr.choice e f, g))
    (Expr.choice (Expr.Seq (e, g)) (Expr.Seq (f, g)));
  law ". distributes over |"
    (Expr.Seq (Expr.conj e f, g))
    (Expr.conj (Expr.Seq (e, g)) (Expr.Seq (f, g)));
  law "T identity for ." (Expr.Seq (Expr.Top, e)) e;
  law "0 annihilates ." (Expr.Seq (Expr.Zero, e)) Expr.zero

let test_smart_constructors () =
  check expr_testable "seq top" e (Expr.seq Expr.top e);
  check expr_testable "seq zero" Expr.zero (Expr.seq e Expr.zero);
  check expr_testable "choice zero" e (Expr.choice Expr.zero e);
  check expr_testable "conj top" e (Expr.conj e Expr.top);
  check expr_testable "choice top" Expr.top (Expr.choice e Expr.top);
  check expr_testable "conj zero" Expr.zero (Expr.conj e Expr.zero)

let test_literals_gamma () =
  (* Γ_E includes mentioned literals and their complements. *)
  let lits = Expr.literals (Expr.choice ne (Expr.seq e f)) in
  check Alcotest.int "Γ size" 4 (Literal.Set.cardinal lits);
  checkb "contains f̄" (Literal.Set.mem (lit "~f") lits)

let test_pp_parse_shapes () =
  check Alcotest.string "D< printed" "~e + ~f + e.f" (Expr.to_string Catalog.d_lt);
  check Alcotest.string "precedence" "(e + f).g"
    (Expr.to_string (Expr.Seq (Expr.choice e f, g)))

(* --- normal forms --------------------------------------------------------- *)

let test_nf_basic () =
  checkb "0 nf" (Nf.is_zero (Nf.of_expr Expr.zero));
  checkb "T nf" (Nf.is_top (Nf.of_expr Expr.top));
  checkb "e.~e collapses to 0"
    (Nf.is_zero (Nf.of_expr (Expr.Seq (e, ne))));
  checkb "e.e collapses to 0" (Nf.is_zero (Nf.of_expr (Expr.Seq (e, e))));
  checkb "e|~e collapses to 0" (Nf.is_zero (Nf.of_expr (Expr.Conj (e, ne))))

let test_nf_product_satisfiability () =
  let t1 = Option.get (Term.make [ lit "e"; lit "f" ]) in
  let t2 = Option.get (Term.make [ lit "f"; lit "e" ]) in
  let t3 = Option.get (Term.make [ lit "f"; lit "g" ]) in
  let t4 = Option.get (Term.make [ lit "g"; lit "e" ]) in
  checkb "consistent orders fine" (Nf.product_satisfiable [ t1; t3 ]);
  checkb "2-cycle detected" (not (Nf.product_satisfiable [ t1; t2 ]));
  checkb "3-cycle detected" (not (Nf.product_satisfiable [ t1; t3; t4 ]));
  checkb "polarity clash detected"
    (not
       (Nf.product_satisfiable
          [ Option.get (Term.make [ lit "e" ]); Option.get (Term.make [ lit "~e" ]) ]))

let test_term_satisfies () =
  let tau = Option.get (Term.make [ lit "e"; lit "f" ]) in
  checkb "in order" (Term.satisfies (Trace.of_events [ "e"; "g"; "f" ]) tau);
  checkb "wrong order" (not (Term.satisfies (Trace.of_events [ "f"; "e" ]) tau));
  checkb "missing" (not (Term.satisfies (Trace.of_events [ "e" ]) tau));
  checkb "top term everywhere" (Term.satisfies [] Term.top)

let test_two_phase_catalog () =
  let d = Catalog.commit_after_prepared "c" "p" in
  checkb "commit after prepare ok"
    (Semantics.satisfies (Trace.of_events [ "p_p"; "c_c" ]) d);
  checkb "commit before prepare violates"
    (not (Semantics.satisfies (Trace.of_events [ "c_c"; "p_p" ]) d));
  checkb "no commit is fine"
    (Semantics.satisfies (Trace.of_events [ "~c_c" ]) d);
  let d2 = Catalog.commit_on_commit "c" "p" in
  checkb "participant waits for coordinator"
    (not (Semantics.satisfies (Trace.of_events [ "c_p"; "c_c" ]) d2));
  checkb "decision order ok"
    (Semantics.satisfies (Trace.of_events [ "c_c"; "c_p" ]) d2)

let suite =
  [
    Alcotest.test_case "two-phase catalog dependencies" `Quick
      test_two_phase_catalog;
    Alcotest.test_case "atom semantics" `Quick test_atom_semantics;
    Alcotest.test_case "sequence semantics" `Quick test_seq_semantics;
    Alcotest.test_case "choice and conjunction" `Quick test_choice_conj_semantics;
    Alcotest.test_case "Example 1 denotations" `Quick test_example1_denotations;
    Alcotest.test_case "Klein primitives (Examples 2, 3)" `Quick test_klein_examples;
    Alcotest.test_case "operator laws" `Quick test_operator_laws;
    Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
    Alcotest.test_case "Γ_E computation" `Quick test_literals_gamma;
    Alcotest.test_case "pretty printing" `Quick test_pp_parse_shapes;
    Alcotest.test_case "normal-form collapses" `Quick test_nf_basic;
    Alcotest.test_case "product satisfiability" `Quick test_nf_product_satisfiability;
    Alcotest.test_case "term satisfaction" `Quick test_term_satisfies;
    qtest ~count:200 "nf preserves semantics" gen_expr (fun x ->
        Equiv.equal x (Nf.to_expr (Nf.of_expr x)));
    qtest ~count:200 "nf satisfaction agrees" gen_expr (fun x ->
        let nf_x = Nf.of_expr x in
        List.for_all
          (fun u -> Semantics.satisfies u x = Nf.For_testing.satisfies u nf_x)
          (Universe.traces (Expr.symbols x)));
    qtest ~count:200 "denotation monotone under +" gen_expr (fun x ->
        Equiv.For_testing.entails x (Expr.choice x f));
    qtest ~count:200 "conj entails operands" gen_expr (fun x ->
        Equiv.For_testing.entails (Expr.conj x f) x);
    qtest ~count:100 "equiv is reflexive" gen_expr (fun x -> Equiv.equal x x);
    qprop ~count:300 ~print:Expr.to_string
      "positional satisfaction = split enumeration" gen_expr (fun x ->
        List.for_all
          (fun u -> Semantics.satisfies u x = Reference.satisfies u x)
          (Universe.traces alpha_efg));
  ]
