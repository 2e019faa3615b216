(* Guards: DNF construction, the merge-based simplifier, semantics, and
   the assimilation proof rules of Section 4.3. *)

open Wf_core
open Helpers

let guard_testable = Alcotest.testable Guard.pp Guard.equal

let gstr gd = Formula.to_string (Guard.to_formula gd)

let test_constructors () =
  checkb "top true" (Guard.is_true Guard.top);
  checkb "bottom false" (Guard.is_false Guard.bottom);
  check Alcotest.string "has" "[]e" (gstr (Guard.has (lit "e")));
  check Alcotest.string "hasnt" "!e" (gstr (Guard.hasnt (lit "e")));
  check Alcotest.string "will" "<>e" (gstr (Guard.For_testing.will (lit "e")));
  check Alcotest.string "will neg" "<>~e" (gstr (Guard.For_testing.will (lit "~e")))

let test_boolean_structure () =
  let a = Guard.has (lit "e") in
  check guard_testable "conj top" a (Guard.conj a Guard.top);
  check guard_testable "sum bottom" a (Guard.sum a Guard.bottom);
  checkb "conj bottom" (Guard.is_false (Guard.conj a Guard.bottom));
  checkb "sum top" (Guard.is_true (Guard.sum a Guard.top));
  checkb "contradiction collapses"
    (Guard.is_false (Guard.conj (Guard.has (lit "e")) (Guard.has (lit "~e"))))

let test_example8_as_masks () =
  (* The laws of Example 8 hold by mask arithmetic. *)
  let dia_e = Guard.For_testing.will (lit "e") and dia_ne = Guard.For_testing.will (lit "~e") in
  let box_e = Guard.has (lit "e") and not_e = Guard.hasnt (lit "e") in
  checkb "◇e + ◇ē = T" (Guard.is_true (Guard.sum dia_e dia_ne));
  checkb "◇e | ◇ē = 0" (Guard.is_false (Guard.conj dia_e dia_ne));
  checkb "¬e + □e = T" (Guard.is_true (Guard.sum not_e box_e));
  checkb "¬e | □e = 0" (Guard.is_false (Guard.conj not_e box_e));
  check guard_testable "¬e + □ē = ¬e"
    not_e
    (Guard.sum not_e (Guard.has (lit "~e")));
  check guard_testable "◇e | □e = □e" box_e (Guard.conj dia_e box_e)

let test_merge_products () =
  (* (¬f|¬f̄) + □f̄ merges to ¬f (the simplification of Example 9.6). *)
  let merged =
    Guard.sum
      (Guard.conj (Guard.hasnt (lit "f")) (Guard.hasnt (lit "~f")))
      (Guard.has (lit "~f"))
  in
  check guard_testable "merged to ¬f" (Guard.hasnt (lit "f")) merged

let test_will_term () =
  let tau = Option.get (Term.make [ lit "e"; lit "f" ]) in
  let gd = Guard.will_term tau in
  check Alcotest.string "pending term prints" "<>e.f" (gstr gd);
  (* ◇(e·f) implies ◇e and ◇f. *)
  let alpha = alpha_ef in
  checkb "implies ◇e"
    (List.for_all
       (fun u ->
         List.for_all
           (fun i ->
             (not (Guard.eval u i gd)) || Guard.eval u i (Guard.For_testing.will (lit "e")))
           (List.init (Trace.length u + 1) Fun.id))
       (Universe.maximal_traces alpha))

let test_will_nf_distribution () =
  (* ◇ distributes over + and | for monotone occurrence predicates. *)
  let d = Expr.choice (Expr.seq e f) ng in
  let gd = Guard.will_nf (Nf.of_expr d) in
  let alpha = alpha_efg in
  List.iter
    (fun u ->
      List.iter
        (fun i ->
          (* ◇D at i iff D holds at the final index (monotone). *)
          check Alcotest.bool
            (Printf.sprintf "◇D at %s,%d" (Trace.to_string u) i)
            (Semantics.satisfies u d)
            (Guard.eval u i gd))
        (List.init (Trace.length u + 1) Fun.id))
    (Universe.maximal_traces alpha)

let test_eval_matches_formula () =
  let gd =
    Guard.sum
      (Guard.conj (Guard.hasnt (lit "f")) (Guard.For_testing.will (lit "e")))
      (Guard.will_term (Option.get (Term.make [ lit "f"; lit "g" ])))
  in
  let form = Guard.to_formula gd in
  List.iter
    (fun u ->
      List.iter
        (fun i ->
          check Alcotest.bool
            (Printf.sprintf "agree at %s,%d" (Trace.to_string u) i)
            (Tsemantics.sat u i form) (Guard.eval u i gd))
        (List.init (Trace.length u + 1) Fun.id))
    (Universe.maximal_traces alpha_efg)

(* --- assimilation --------------------------------------------------------- *)

let test_assimilate_occurred () =
  (* Section 4.3: □e reduces □e and ◇e to T, ¬e to 0. *)
  checkb "□e to T"
    (Guard.is_true (Guard.assimilate_occurred (lit "e") (Guard.has (lit "e"))));
  checkb "◇e to T"
    (Guard.is_true (Guard.assimilate_occurred (lit "e") (Guard.For_testing.will (lit "e"))));
  checkb "¬e to 0"
    (Guard.is_false (Guard.assimilate_occurred (lit "e") (Guard.hasnt (lit "e"))));
  (* And □ē kills □e and ◇e, validates ¬e. *)
  checkb "□ē kills ◇e"
    (Guard.is_false (Guard.assimilate_occurred (lit "~e") (Guard.For_testing.will (lit "e"))));
  checkb "□ē validates ¬e"
    (Guard.is_true (Guard.assimilate_occurred (lit "~e") (Guard.hasnt (lit "e"))))

let test_assimilate_promise () =
  (* ◇e reduces ◇e to T but leaves □e and ¬e symbolic. *)
  checkb "promise discharges ◇e"
    (Guard.is_true (Guard.assimilate_promise (lit "e") (Guard.For_testing.will (lit "e"))));
  let boxed = Guard.assimilate_promise (lit "e") (Guard.has (lit "e")) in
  checkb "promise leaves □e pending"
    ((not (Guard.is_true boxed)) && not (Guard.is_false boxed));
  let not_e = Guard.assimilate_promise (lit "e") (Guard.hasnt (lit "e")) in
  checkb "promise leaves ¬e pending"
    ((not (Guard.is_true not_e)) && not (Guard.is_false not_e));
  checkb "promise of complement kills ◇e"
    (Guard.is_false (Guard.assimilate_promise (lit "~e") (Guard.For_testing.will (lit "e"))))

let test_assimilate_pending_order () =
  (* ◇(e·f): e first shrinks it to ◇f; f first kills it. *)
  let tau = Option.get (Term.make [ lit "e"; lit "f" ]) in
  let gd = Guard.will_term tau in
  check guard_testable "after e: ◇f"
    (Guard.For_testing.will (lit "f"))
    (Guard.assimilate_occurred (lit "e") gd);
  checkb "after f: dead"
    (Guard.is_false (Guard.assimilate_occurred (lit "f") gd));
  checkb "complement kills"
    (Guard.is_false (Guard.assimilate_occurred (lit "~f") gd))

let test_map_symbols () =
  let gd = Guard.conj (Guard.has (lit "e")) (Guard.For_testing.will (lit "f")) in
  let renamed =
    Guard.map_symbols
      (fun sym -> Symbol.make (Symbol.name sym ^ "_x"))
      gd
  in
  checkb "renamed symbols"
    (Symbol.Set.mem (Symbol.make "e_x") (Guard.symbols renamed));
  check Alcotest.int "same size" (Guard.size gd) (Guard.size renamed)

(* Property: assimilation of an occurrence preserves meaning on traces
   consistent with it. *)
let gen_guard_input = QCheck2.Gen.pair gen_expr gen_literal

let assimilation_sound (x, l) =
  let gd = Guard.will_nf (Nf.of_expr x) in
  let gd' = Guard.assimilate_occurred l gd in
  let alpha =
    Symbol.Set.add (Literal.symbol l) (Expr.symbols x)
  in
  (* On maximal traces where l occurs first, the original guard at index
     1 agrees with the assimilated guard evaluated at index 1. *)
  List.for_all
    (fun u ->
      match u with
      | first :: _ when Literal.equal first l ->
          Guard.eval u 1 gd = Guard.eval u 1 gd'
      | _ -> true)
    (Universe.maximal_traces alpha)

let suite =
  [
    Alcotest.test_case "constructors" `Quick test_constructors;
    Alcotest.test_case "boolean structure" `Quick test_boolean_structure;
    Alcotest.test_case "Example 8 laws as masks" `Quick test_example8_as_masks;
    Alcotest.test_case "product merging" `Quick test_merge_products;
    Alcotest.test_case "pending terms" `Quick test_will_term;
    Alcotest.test_case "◇ distributes (monotonicity)" `Quick test_will_nf_distribution;
    Alcotest.test_case "eval matches formula semantics" `Quick test_eval_matches_formula;
    Alcotest.test_case "assimilate occurrences" `Quick test_assimilate_occurred;
    Alcotest.test_case "assimilate promises" `Quick test_assimilate_promise;
    Alcotest.test_case "assimilate ordered eventualities" `Quick
      test_assimilate_pending_order;
    Alcotest.test_case "symbol renaming" `Quick test_map_symbols;
    qtest ~count:150 "assimilation is sound" gen_guard_input assimilation_sound;
    qtest ~count:150 "conj evaluates as intersection"
      (QCheck2.Gen.pair gen_expr gen_expr)
      (fun (x, y) ->
        let gx = Guard.will_nf (Nf.of_expr x)
        and gy = Guard.will_nf (Nf.of_expr y) in
        let gxy = Guard.conj gx gy in
        let alpha = Symbol.Set.union (Expr.symbols x) (Expr.symbols y) in
        let alpha = if Symbol.Set.is_empty alpha then Universe.of_names ["e"] else alpha in
        List.for_all
          (fun u ->
            Guard.eval u 0 gxy = (Guard.eval u 0 gx && Guard.eval u 0 gy))
          (Universe.maximal_traces alpha));
    qtest ~count:150 "sum evaluates as union"
      (QCheck2.Gen.pair gen_expr gen_expr)
      (fun (x, y) ->
        let gx = Guard.will_nf (Nf.of_expr x)
        and gy = Guard.will_nf (Nf.of_expr y) in
        let gxy = Guard.sum gx gy in
        let alpha = Symbol.Set.union (Expr.symbols x) (Expr.symbols y) in
        let alpha = if Symbol.Set.is_empty alpha then Universe.of_names ["e"] else alpha in
        List.for_all
          (fun u ->
            Guard.eval u 0 gxy = (Guard.eval u 0 gx || Guard.eval u 0 gy))
          (Universe.maximal_traces alpha));
  ]
