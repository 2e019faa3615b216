(* Residuation (Section 3.4): the symbolic rules, Theorem 1 soundness
   against the model-theoretic oracle, and the scheduler-state
   automaton of Figure 2. *)

open Wf_core
open Helpers

let residual_eq msg d x expected =
  checkb msg (Equiv.equal (Residue.For_testing.symbolic d (lit x)) expected)

let test_rules_on_atoms () =
  residual_eq "e/e = T" e "e" Expr.top;
  residual_eq "~e/e = 0" ne "e" Expr.zero;
  residual_eq "f/e = f (rule 6)" f "e" f;
  residual_eq "T/e = T (rule 2)" Expr.top "e" Expr.top;
  residual_eq "0/e = 0 (rule 1)" Expr.zero "e" Expr.zero

let test_rules_on_sequences () =
  residual_eq "(e.f)/e = f (rule 3)" (Expr.seq e f) "e" f;
  residual_eq "(e.f)/f = 0 (rule 7)" (Expr.seq e f) "f" Expr.zero;
  residual_eq "(f.~e)/e = 0 (rule 8)" (Expr.seq f ne) "e" Expr.zero;
  residual_eq "(f.g)/e = f.g" (Expr.seq f g) "e" (Expr.seq f g)

let test_example6 () =
  (* Example 6: (ē+f̄+e·f)/e = f̄+f and (ē+f)/f̄ = ē. *)
  residual_eq "D</e" Catalog.d_lt "e" (Expr.choice nf f);
  residual_eq "D→/~f" Catalog.d_arrow "~f" ne

let test_figure2_dlt () =
  (* Figure 2, left: the scheduler states of D<. *)
  let aut = Automaton.build Catalog.d_lt in
  check Alcotest.int "D< has 5 states" 5 (Automaton.num_states aut);
  let s0 = Automaton.For_testing.initial aut in
  let after trace = Automaton.run aut (Trace.of_events trace) in
  checkb "complement of e accepts" (Automaton.For_testing.is_accepting aut (after [ "~e" ]));
  checkb "complement of f accepts" (Automaton.For_testing.is_accepting aut (after [ "~f" ]));
  checkb "after e: f+~f"
    (Equiv.equal (Automaton.For_testing.state_expr aut (after [ "e" ])) (Expr.choice f nf));
  checkb "after f: ~e"
    (Equiv.equal (Automaton.For_testing.state_expr aut (after [ "f" ])) ne);
  checkb "e after f is dead (f precedes e)"
    (Automaton.is_dead aut (after [ "f"; "e" ]));
  checkb "e then f accepts" (Automaton.For_testing.is_accepting aut (after [ "e"; "f" ]));
  checkb "initial completable" (Automaton.can_complete aut s0);
  checkb "dead not completable"
    (not (Automaton.can_complete aut (after [ "f"; "e" ])))

let test_figure2_darrow () =
  (* Figure 2, right: D→. *)
  let aut = Automaton.build Catalog.d_arrow in
  let after trace = Automaton.run aut (Trace.of_events trace) in
  checkb "~e accepts" (Automaton.For_testing.is_accepting aut (after [ "~e" ]));
  checkb "f accepts" (Automaton.For_testing.is_accepting aut (after [ "f" ]));
  checkb "after e must see f"
    (Equiv.equal (Automaton.For_testing.state_expr aut (after [ "e" ])) f);
  checkb "e then ~f dead" (Automaton.is_dead aut (after [ "e"; "~f" ]))

let test_automaton_acceptance_matches_semantics () =
  (* For any D and trace u: u ⊨ D iff running u ends at a state whose
     residual accepts the empty remainder, i.e. the state denotes a set
     containing λ.  We check the stronger property used by the central
     scheduler: the run of u on the automaton yields exactly D/u. *)
  List.iter
    (fun (name, d) ->
      let aut = Automaton.build d in
      List.iter
        (fun u ->
          let by_aut = Automaton.For_testing.state_expr aut (Automaton.run aut u) in
          let by_residue = Nf.to_expr (Residue.by_trace (Nf.of_expr d) u) in
          checkb
            (Printf.sprintf "%s consistent on %s" name (Trace.to_string u))
            (Equiv.equal by_aut by_residue))
        (Universe.traces (Expr.symbols d)))
    [ ("d_lt", Catalog.d_lt); ("d_arrow", Catalog.d_arrow) ]

let test_accepted_paths () =
  (* Π(D→) contains ⟨~e⟩ and ⟨f⟩ and never a path through a dead
     state. *)
  let paths = Paths.pi Catalog.d_arrow in
  checkb "⟨~e⟩ ∈ Π" (List.exists (Trace.equal (Trace.of_events [ "~e" ])) paths);
  checkb "⟨f⟩ ∈ Π" (List.exists (Trace.equal (Trace.of_events [ "f" ])) paths);
  checkb "⟨e ~f⟩ ∉ Π"
    (not (List.exists (Trace.equal (Trace.of_events [ "e"; "~f" ])) paths));
  (* Definition 3: residuating along any member yields T. *)
  checkb "all paths residuate to T"
    (List.for_all
       (fun p ->
         Equiv.is_top (Nf.to_expr (Residue.by_trace (Nf.of_expr Catalog.d_arrow) p)))
       paths)

let test_required_literals () =
  (* After s_buy occurs, dependency (1) of Example 4 requires s_book. *)
  let d1 = Catalog.requires (lit "s_buy") (lit "s_book") in
  let aut = Automaton.build d1 in
  let s0 = Automaton.For_testing.initial aut in
  checkb "nothing required initially"
    (Literal.Set.is_empty (Automaton.required_literals aut s0));
  let s1 = Automaton.step aut s0 (lit "s_buy") in
  checkb "s_book required after s_buy"
    (Literal.Set.mem (lit "s_book") (Automaton.required_literals aut s1));
  let s2 = Automaton.step aut s0 (lit "~s_buy") in
  checkb "nothing required after ~s_buy"
    (Literal.Set.is_empty (Automaton.required_literals aut s2))

let gen_expr_lit =
  QCheck2.Gen.pair gen_expr gen_literal

let suite =
  [
    Alcotest.test_case "rules on atoms" `Quick test_rules_on_atoms;
    Alcotest.test_case "rules on sequences" `Quick test_rules_on_sequences;
    Alcotest.test_case "Example 6" `Quick test_example6;
    Alcotest.test_case "Figure 2: D< automaton" `Quick test_figure2_dlt;
    Alcotest.test_case "Figure 2: D→ automaton" `Quick test_figure2_darrow;
    Alcotest.test_case "automaton = iterated residuation" `Quick
      test_automaton_acceptance_matches_semantics;
    Alcotest.test_case "Π(D) membership (Definition 3)" `Quick test_accepted_paths;
    Alcotest.test_case "trigger obligations" `Quick test_required_literals;
    qtest ~count:150 "Theorem 1: symbolic residuation is sound" gen_expr_lit
      (fun (d, x) -> Residue.For_testing.agrees_with_oracle d x);
    qtest ~count:100 "residuation distributes over + (rule 4)" gen_expr_lit
      (fun (d, x) ->
        Equiv.equal
          (Residue.For_testing.symbolic (Expr.choice d f) x)
          (Expr.choice (Residue.For_testing.symbolic d x) (Residue.For_testing.symbolic f x)));
    qtest ~count:100 "residuation distributes over | (rule 5)" gen_expr_lit
      (fun (d, x) ->
        Equiv.equal
          (Residue.For_testing.symbolic (Expr.conj d f) x)
          (Expr.conj (Residue.For_testing.symbolic d x) (Residue.For_testing.symbolic f x)));
    qtest ~count:60 "catalog dependencies have sound residuals"
      (QCheck2.Gen.pair (QCheck2.Gen.oneofl Catalog.named) gen_literal)
      (fun ((_, d), x) -> Residue.For_testing.agrees_with_oracle d x);
  ]
