(* Guard synthesis (Definition 2): Example 9, Figure 4, the theorems of
   Section 4.4, and workflow compilation. *)

open Wf_core
open Helpers

let guard_eq msg d event expected_formula =
  let gd = Synth.guard d (lit event) in
  let alpha =
    Symbol.Set.add (Literal.symbol (lit event)) (Expr.symbols d)
  in
  let alpha =
    Symbol.Set.union alpha (Formula.symbols expected_formula)
  in
  checkb msg
    (List.for_all
       (fun u ->
         List.for_all
           (fun i -> Guard.eval u i gd = Tsemantics.sat u i expected_formula)
           (List.init (Trace.length u + 1) Fun.id))
       (Universe.maximal_traces alpha))

let fe = Formula.event "e"
let ff = Formula.event "f"
let fne = Formula.complement "e"
let fnf = Formula.complement "f"

let test_example9_constants () =
  (* Items 1-4 of Example 9. *)
  checkb "G(T,e) = T" (Guard.is_true (Synth.guard Expr.top (lit "e")));
  checkb "G(0,e) = 0" (Guard.is_false (Synth.guard Expr.zero (lit "e")));
  checkb "G(e,e) = T" (Guard.is_true (Synth.guard e (lit "e")));
  checkb "G(~e,e) = 0" (Guard.is_false (Synth.guard ne (lit "e")))

let test_example9_dlt () =
  (* Items 5-8 of Example 9. *)
  checkb "G(D<,~e) = T" (Guard.is_true (Synth.guard Catalog.d_lt (lit "~e")));
  guard_eq "G(D<,e) = ¬f" Catalog.d_lt "e" (Formula.not_ ff);
  checkb "G(D<,~f) = T" (Guard.is_true (Synth.guard Catalog.d_lt (lit "~f")));
  guard_eq "G(D<,f) = ◇ē + □e" Catalog.d_lt "f"
    (Formula.or_ (Formula.eventually fne) (Formula.always fe))

(* [D→ᵀ = f̄ + e] (Example 11). *)
let d_arrow_transpose = Catalog.requires (lit "f") (lit "e")

let test_example11 () =
  (* D→ gives e's guard ◇f; adding the transpose gives f's guard ◇e. *)
  guard_eq "G(D→,e) = ◇f" Catalog.d_arrow "e" (Formula.eventually ff);
  checkb "G(D→ᵀ,e) = T"
    (Guard.is_true (Synth.guard d_arrow_transpose (lit "e")));
  let w = [ Catalog.d_arrow; d_arrow_transpose ] in
  let guard l = (Compile.plan (Compile.compile w) (lit l)).guard in
  let ge = guard "e" and gf = guard "f" in
  check Alcotest.string "workflow guard on e" "<>f"
    (Formula.to_string (Guard.to_formula ge));
  check Alcotest.string "workflow guard on f" "<>e"
    (Formula.to_string (Guard.to_formula gf))

let test_canonical_printing () =
  check Alcotest.string "G(D<,e) prints as !f" "!f"
    (Formula.to_string (Guard.to_formula (Synth.guard Catalog.d_lt (lit "e"))));
  check Alcotest.string "G(D<,f) prints canonically" "[]e + <>~e"
    (Formula.to_string (Guard.to_formula (Synth.guard Catalog.d_lt (lit "f"))))

let test_sequence_closed_form () =
  (* The remark before Definition 3:
     G(e1·…·ek·…·en, ek) = □e1|…|□e_{k-1}|¬e_{k+1}|…|¬e_n|◇(e_{k+1}·…·e_n). *)
  let d = Expr.seq_all [ e; f; g ] in
  guard_eq "guard of middle of chain" d "f"
    (Formula.and_all
       [ Formula.always fe; Formula.not_ (Formula.event "g");
         Formula.eventually (Formula.event "g") ])

let test_unmentioned_event_guard () =
  (* A workflow's guard is T for events no dependency mentions. *)
  checkb "unmentioned is T"
    (Guard.is_true
       (Compile.plan (Compile.compile [ Catalog.d_lt ]) (lit "zz")).guard)

(* --- Section 4.4 results -------------------------------------------------- *)

let disjoint_pairs =
  (* Alphabet-disjoint dependency pairs for Theorems 2 and 4. *)
  let h = Expr.event "h" and k = Expr.event "k" in
  [
    (Catalog.d_lt, Catalog.precedes (lit "h") (lit "k"));
    (Catalog.d_arrow, Expr.choice (Expr.complement "h") k);
    (Expr.seq e f, Expr.seq h k);
  ]

let test_theorem2 () =
  List.iteri
    (fun i (d1, d2) ->
      List.iter
        (fun ev ->
          checkb
            (Printf.sprintf "theorem 2 pair %d on %s" i ev)
            (Theorems.check_theorem2 d1 d2 (lit ev)))
        [ "e"; "h"; "~e" ])
    disjoint_pairs

let test_theorem4 () =
  List.iteri
    (fun i (d1, d2) ->
      List.iter
        (fun ev ->
          checkb
            (Printf.sprintf "theorem 4 pair %d on %s" i ev)
            (Theorems.check_theorem4 d1 d2 (lit ev)))
        [ "e"; "h"; "~e" ])
    disjoint_pairs

let test_lemma3 () =
  List.iter
    (fun (d, ev, g) ->
      checkb
        (Printf.sprintf "lemma 3 on %s by %s" (Expr.to_string d) g)
        (Theorems.check_lemma3 d (lit ev) (lit g)))
    [
      (Catalog.d_lt, "e", "f");
      (Catalog.d_lt, "f", "~e");
      (Catalog.d_arrow, "e", "f");
      (Expr.seq e f, "f", "e");
    ]

let test_lemma5 () =
  List.iter
    (fun (d, ev) ->
      checkb
        (Printf.sprintf "lemma 5 on %s for %s" (Expr.to_string d) ev)
        (Theorems.check_lemma5 d (lit ev)))
    [
      (Catalog.d_lt, "e");
      (Catalog.d_lt, "f");
      (Catalog.d_lt, "~e");
      (Catalog.d_arrow, "e");
      (Catalog.d_arrow, "f");
      (Expr.seq e f, "e");
      (Expr.seq e f, "f");
    ]

let test_theorem6_small_workflows () =
  List.iter
    (fun (name, deps, alpha) ->
      checkb name (Correctness.For_testing.theorem6_holds deps alpha))
    [
      ("{D<}", [ Catalog.d_lt ], alpha_ef);
      ("{D→}", [ Catalog.d_arrow ], alpha_ef);
      ("{D<, D→}", [ Catalog.d_lt; Catalog.d_arrow ], alpha_ef);
      ( "{D→, D→ᵀ}",
        [ Catalog.d_arrow; d_arrow_transpose ],
        alpha_ef );
      ( "chain",
        [ Expr.seq_all [ e; f ] ],
        alpha_ef );
    ]

let test_theorem6_travel () =
  let deps = List.map snd (Catalog.travel_workflow ()) in
  let alpha =
    List.fold_left
      (fun a d -> Symbol.Set.union a (Expr.symbols d))
      Symbol.Set.empty deps
  in
  checkb "travel workflow satisfies Theorem 6"
    (Correctness.For_testing.theorem6_holds deps alpha)

let test_compile () =
  let deps = List.map snd (Catalog.travel_workflow ()) in
  let c = Compile.compile deps in
  check Alcotest.int "alphabet size" 5 (Symbol.Set.cardinal (Compile.alphabet c));
  let plan = Compile.plan c (lit "c_buy") in
  check Alcotest.string "c_buy guard" "[]c_book"
    (Formula.to_string (Guard.to_formula plan.Compile.guard));
  checkb "c_buy watches c_book"
    (Symbol.Set.mem (Symbol.make "c_book") plan.Compile.watched);
  checkb "c_book actors subscribe to c_buy announcements"
    (List.exists
       (fun (p : Compile.event_plan) ->
         Symbol.equal (Literal.symbol p.literal) (Symbol.make "c_book")
         && Symbol.Set.mem (Symbol.make "c_buy") p.watched)
       (Compile.plans c));
  checkb "total guard size positive"
    (List.exists (fun p -> Guard.size p.Compile.guard > 0) (Compile.plans c))

let gen_expr_lit = QCheck2.Gen.pair gen_expr gen_literal

let suite =
  [
    Alcotest.test_case "Example 9: constants" `Quick test_example9_constants;
    Alcotest.test_case "Example 9: D< guards" `Quick test_example9_dlt;
    Alcotest.test_case "Example 11: mutual eventualities" `Quick test_example11;
    Alcotest.test_case "canonical printing" `Quick test_canonical_printing;
    Alcotest.test_case "sequence closed form" `Quick test_sequence_closed_form;
    Alcotest.test_case "unmentioned events" `Quick test_unmentioned_event_guard;
    Alcotest.test_case "Theorem 2" `Quick test_theorem2;
    Alcotest.test_case "Theorem 4" `Quick test_theorem4;
    Alcotest.test_case "Lemma 3" `Quick test_lemma3;
    Alcotest.test_case "Lemma 5" `Quick test_lemma5;
    Alcotest.test_case "Theorem 6 on small workflows" `Quick
      test_theorem6_small_workflows;
    Alcotest.test_case "Theorem 6 on the travel workflow" `Slow
      test_theorem6_travel;
    Alcotest.test_case "workflow compilation" `Quick test_compile;
    qtest ~count:60 "Theorem 6 on random singleton workflows" gen_expr
      (fun d ->
        let alpha = Expr.symbols d in
        let alpha =
          if Symbol.Set.is_empty alpha then Universe.of_names [ "e" ] else alpha
        in
        Correctness.For_testing.theorem6_holds [ d ] alpha);
    qtest ~count:60 "lemma 5 on random dependencies" gen_expr_lit
      (fun (d, x) -> Theorems.check_lemma5 d x);
    qtest ~count:60 "guards are weakest among sequence prefixes" gen_expr_lit
      (fun (d, x) ->
        (* Firing when the guard holds never violates D on any
           completion: G(D,x) at i and x at i+1 implies some maximal
           extension satisfies D... we check the contrapositive used in
           Theorem 6's proof: traces satisfying D are generated. *)
        let alpha = Symbol.Set.add (Literal.symbol x) (Expr.symbols d) in
        List.for_all
          (fun u ->
            (not (Semantics.satisfies u d)) || Correctness.generates [ d ] u)
          (Universe.maximal_traces alpha));
  ]
