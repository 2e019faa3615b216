(* The temporal language T (Section 4.1): indexed semantics, Figure 3,
   the laws of Example 8, and the four-situation abstraction. *)

open Wf_core
open Helpers

let fe = Formula.event "e"
let fne = Formula.complement "e"
let ff = Formula.event "f"

let sat events i form = Tsemantics.sat (Trace.of_events events) i form

let test_example7 () =
  (* Example 7 over u = ⟨e f g⟩. *)
  let u = [ "e"; "f"; "g" ] in
  checkb "◇g at 0" (sat u 0 (Formula.eventually (Formula.event "g")));
  checkb "¬e|¬f|¬g at 0"
    (sat u 0
       (Formula.and_all
          [ Formula.not_ fe; Formula.not_ ff; Formula.not_ (Formula.event "g") ]));
  checkb "◇(f.g) at 0"
    (sat u 0 (Formula.eventually (Formula.Seq (ff, Formula.event "g"))));
  checkb "□e|¬f|¬g at 1"
    (sat u 1
       (Formula.and_all
          [ Formula.always fe; Formula.not_ ff; Formula.not_ (Formula.event "g") ]));
  checkb "e.g fails at 1" (not (sat u 1 (Formula.Seq (fe, Formula.event "g"))));
  checkb "e.g holds at 3" (sat u 3 (Formula.Seq (fe, Formula.event "g")))

let test_stability () =
  (* Semantics 7 validates stability: □e = e, but □¬e ≠ ¬e. *)
  let alpha = Universe.of_names [ "e" ] in
  checkb "□e = e" (Tsemantics.equivalent ~alphabet:alpha (Formula.always fe) fe);
  checkb "□¬e ≠ ¬e"
    (not
       (Tsemantics.equivalent ~alphabet:alpha
          (Formula.always (Formula.not_ fe))
          (Formula.not_ fe)));
  checkb "□e entails ◇e"
    (Tsemantics.For_testing.entails ~alphabet:alpha (Formula.always fe) (Formula.eventually fe))

let test_figure3_table () =
  let t = Tables.figure3 () in
  (* The exact check-mark pattern of Figure 3, row by row:
     columns are ⟨e⟩,0  ⟨e⟩,1  ⟨ē⟩,0  ⟨ē⟩,1. *)
  let expected =
    [
      [ true; false; true; true ] (* ¬e *);
      [ false; true; false; false ] (* □e *);
      [ true; true; false; false ] (* ◇e *);
      [ true; true; true; false ] (* ¬ē *);
      [ false; false; false; true ] (* □ē *);
      [ false; false; true; true ] (* ◇ē *);
    ]
  in
  List.iteri
    (fun r row ->
      List.iteri
        (fun c cell ->
          check Alcotest.bool
            (Printf.sprintf "figure 3 cell (%d,%d)" r c)
            cell
            t.Tables.cells.(r).(c))
        row)
    expected

let test_example8_laws () =
  List.iter
    (fun (name, holds) -> checkb name holds)
    (Tables.example8_laws ())

let test_coercion () =
  (* Syntax 5: an algebra expression coerces into T; at the final index
     of a maximal trace, satisfaction matches the algebra's. *)
  let alpha = alpha_ef in
  List.iter
    (fun d ->
      List.iter
        (fun u ->
          check Alcotest.bool
            (Printf.sprintf "coercion agrees on %s" (Trace.to_string u))
            (Semantics.satisfies u d)
            (Tsemantics.sat u (Trace.length u) (Formula.of_expr d)))
        (Universe.maximal_traces alpha))
    [ Catalog.d_lt; Catalog.d_arrow; Expr.conj e f ]

(* --- Symbol_state: the 16 masks ------------------------------------------ *)

let test_situations () =
  let sym = Symbol.make "e" in
  let u = Trace.of_events [ "f"; "e" ] in
  check
    (Alcotest.testable
       (fun ppf s ->
         Format.pp_print_string ppf
           (match s with
           | Symbol_state.A -> "A"
           | Symbol_state.B -> "B"
           | Symbol_state.C -> "C"
           | Symbol_state.D -> "D"))
       ( = ))
    "pending then occurred" Symbol_state.C
    (Symbol_state.For_testing.situation_of u 1 sym);
  checkb "occurred at 2" (Symbol_state.For_testing.situation_of u 2 sym = Symbol_state.A);
  let v = Trace.of_events [ "~e" ] in
  checkb "complement pending" (Symbol_state.For_testing.situation_of v 0 sym = Symbol_state.D);
  checkb "complement occurred" (Symbol_state.For_testing.situation_of v 1 sym = Symbol_state.B)

let test_all_masks_against_formulas () =
  (* Every one of the 16 masks renders to a formula with exactly the
     mask's satisfaction pattern. *)
  let sym = Symbol.make "e" in
  let alpha = Universe.of_names [ "e" ] in
  let points =
    List.concat_map
      (fun u -> List.init (Trace.length u + 1) (fun i -> (u, i)))
      (Universe.maximal_traces alpha)
  in
  for mask = 0 to 15 do
    let form = Symbol_state.to_formula sym mask in
    List.iter
      (fun (u, i) ->
        check Alcotest.bool
          (Printf.sprintf "mask %d at %s,%d" mask (Trace.to_string u) i)
          (Symbol_state.eval u i sym mask)
          (Tsemantics.sat u i form))
      points
  done

let test_mask_algebra () =
  let open Symbol_state in
  checkb "inter" (is_empty (inter (has Literal.Pos) (hasnt Literal.Pos)));
  checkb "will pos = {A,C}" (will Literal.Pos = 5);
  checkb "subset" (subset (has Literal.Pos) (will Literal.Pos));
  checkb "union full"
    (is_full (union (hasnt Literal.Pos) (has Literal.Pos)))

let gen_formula : Formula.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized_size (int_bound 6)
  @@ fix (fun self n ->
         if n <= 0 then map Formula.atom gen_literal
         else
           frequency
             [
               (2, map Formula.atom gen_literal);
               (2, map2 Formula.or_ (self (n / 2)) (self (n / 2)));
               (2, map2 Formula.and_ (self (n / 2)) (self (n / 2)));
               (1, map2 (fun a b -> Formula.Seq (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map Formula.always (self (n - 1)));
               (1, map Formula.eventually (self (n - 1)));
               (1, map Formula.not_ (self (n - 1)));
             ])

let points alphabet =
  List.concat_map
    (fun u -> List.init (Trace.length u + 1) (fun i -> (u, i)))
    (Universe.maximal_traces alphabet)

let suite =
  [
    Alcotest.test_case "Example 7" `Quick test_example7;
    Alcotest.test_case "stability of events" `Quick test_stability;
    Alcotest.test_case "Figure 3 table" `Quick test_figure3_table;
    Alcotest.test_case "Example 8 laws (a)-(f)" `Quick test_example8_laws;
    Alcotest.test_case "algebra-to-temporal coercion" `Quick test_coercion;
    Alcotest.test_case "situations along a trace" `Quick test_situations;
    Alcotest.test_case "all 16 masks match their formulas" `Quick
      test_all_masks_against_formulas;
    Alcotest.test_case "mask algebra" `Quick test_mask_algebra;
    qtest ~count:150 "negation is classical" gen_formula (fun x ->
        List.for_all
          (fun (u, i) ->
            Tsemantics.sat u i (Formula.Not x) = not (Tsemantics.sat u i x))
          (points (Symbol.Set.union (Formula.symbols x) (Universe.of_names [ "e" ]))));
    qtest ~count:150 "□ entails ◇" gen_formula (fun x ->
        let alpha = Symbol.Set.union (Formula.symbols x) (Universe.of_names [ "e" ]) in
        Tsemantics.For_testing.entails ~alphabet:alpha (Formula.Always x) (Formula.Eventually x));
    qtest ~count:150 "◇ is idempotent" gen_formula (fun x ->
        let alpha = Symbol.Set.union (Formula.symbols x) (Universe.of_names [ "e" ]) in
        Tsemantics.equivalent ~alphabet:alpha
          (Formula.Eventually (Formula.Eventually x))
          (Formula.Eventually x));
  ]
