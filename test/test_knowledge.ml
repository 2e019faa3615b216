(* Knowledge-based guard evaluation: the actor's decision procedure. *)

open Wf_core
open Helpers

let status_testable =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with
        | Knowledge.True -> "True"
        | Knowledge.False -> "False"
        | Knowledge.Unknown -> "Unknown"))
    ( = )

let k_of occs promises =
  let k =
    List.fold_left
      (fun k (name, seqno) -> Knowledge.occurred (lit name) ~seqno k)
      Knowledge.empty occs
  in
  List.fold_left (fun k name -> Knowledge.promised (lit name) k) k promises

let test_basic_status () =
  let gd = Guard.has (lit "e") in
  check status_testable "unknown initially" Knowledge.Unknown
    (Knowledge.status Knowledge.empty gd);
  check status_testable "true after occurrence" Knowledge.True
    (Knowledge.status (k_of [ ("e", 1) ] []) gd);
  check status_testable "false after complement" Knowledge.False
    (Knowledge.status (k_of [ ("~e", 1) ] []) gd)

let test_promise_rules () =
  (* The proof rules of Section 4.3: a promise discharges ◇e, leaves □e
     and ¬e undecided. *)
  let k = k_of [] [ "e" ] in
  check status_testable "◇e true" Knowledge.True
    (Knowledge.status k (Guard.For_testing.will (lit "e")));
  check status_testable "□e unknown" Knowledge.Unknown
    (Knowledge.status k (Guard.has (lit "e")));
  check status_testable "¬e unknown" Knowledge.Unknown
    (Knowledge.status k (Guard.hasnt (lit "e")));
  check status_testable "◇ē false" Knowledge.False
    (Knowledge.status k (Guard.For_testing.will (lit "~e")))

let test_reservation () =
  let reserved = Symbol.Set.singleton (Symbol.make "e") in
  check status_testable "¬e true under reservation" Knowledge.True
    (Knowledge.status ~reserved Knowledge.empty (Guard.hasnt (lit "e")));
  check status_testable "□e false under reservation... stays unknown"
    Knowledge.Unknown
    (Knowledge.status ~reserved Knowledge.empty (Guard.has (lit "e")));
  (* promise + reservation pins situation C: ¬e|◇e becomes true. *)
  let both = Guard.conj (Guard.hasnt (lit "e")) (Guard.For_testing.will (lit "e")) in
  check status_testable "¬e|◇e unknown with promise alone" Knowledge.Unknown
    (Knowledge.status (k_of [] [ "e" ]) both);
  check status_testable "¬e|◇e true with promise + reservation" Knowledge.True
    (Knowledge.status ~reserved (k_of [] [ "e" ]) both)

let test_never () =
  (* Universally-quantified fresh instances: events never occur. *)
  let never = Symbol.Set.singleton (Symbol.make "e") in
  check status_testable "¬e true" Knowledge.True
    (Knowledge.status ~never Knowledge.empty (Guard.hasnt (lit "e")));
  check status_testable "◇e false" Knowledge.False
    (Knowledge.status ~never Knowledge.empty (Guard.For_testing.will (lit "e")));
  check status_testable "◇ē true" Knowledge.True
    (Knowledge.status ~never Knowledge.empty (Guard.For_testing.will (lit "~e")));
  check status_testable "□ē false (not yet)" Knowledge.False
    (Knowledge.status ~never Knowledge.empty (Guard.has (lit "~e")))

let test_pending_order () =
  let tau = Guard.will_term (Option.get (Term.make [ lit "e"; lit "f" ])) in
  check status_testable "unknown initially" Knowledge.Unknown
    (Knowledge.status Knowledge.empty tau);
  check status_testable "e then f true" Knowledge.True
    (Knowledge.status (k_of [ ("e", 1); ("f", 2) ] []) tau);
  check status_testable "f before e false" Knowledge.False
    (Knowledge.status (k_of [ ("e", 2); ("f", 1) ] []) tau);
  check status_testable "f alone false (gap)" Knowledge.False
    (Knowledge.status (k_of [ ("f", 1) ] []) tau);
  check status_testable "e alone still unknown" Knowledge.Unknown
    (Knowledge.status (k_of [ ("e", 1) ] []) tau);
  check status_testable "complement kills" Knowledge.False
    (Knowledge.status (k_of [ ("~f", 1) ] []) tau)

let test_reorder_robustness () =
  (* Assimilation order does not matter: the seqno log decides. *)
  let tau = Guard.will_term (Option.get (Term.make [ lit "e"; lit "f" ])) in
  let k1 = k_of [ ("e", 1); ("f", 2) ] [] in
  let k2 = k_of [ ("f", 2); ("e", 1) ] [] in
  check status_testable "same verdict either arrival order"
    (Knowledge.status k1 tau) (Knowledge.status k2 tau)

let test_cover_exactness () =
  (* □x + □x̄ + (¬x|¬x̄) covers all situations: True with no knowledge. *)
  let gd =
    Guard.sum_all
      [
        Guard.has (lit "e");
        Guard.has (lit "~e");
        Guard.conj (Guard.hasnt (lit "e")) (Guard.hasnt (lit "~e"));
      ]
  in
  check status_testable "cover detects tautology" Knowledge.True
    (Knowledge.status Knowledge.empty gd);
  (* The G(s_cancel) shape from the travel workflow. *)
  let gd2 =
    Guard.sum_all
      [
        Guard.has (lit "c");
        Guard.has (lit "~c");
        Guard.conj_all
          [ Guard.hasnt (lit "b"); Guard.hasnt (lit "~b");
            Guard.hasnt (lit "c"); Guard.hasnt (lit "~c") ];
        Guard.has (lit "b");
        Guard.has (lit "~b");
      ]
  in
  check status_testable "two-symbol cover" Knowledge.True
    (Knowledge.status Knowledge.empty gd2)

let test_needs () =
  (* ¬f: reservation; ◇f: promise; □f: wait. *)
  let needs g = Knowledge.needs Knowledge.empty g in
  (match needs (Guard.hasnt (lit "f")) with
  | [ n ] ->
      checkb "reserve offered" (n.Knowledge.reserves = [ Symbol.make "f" ])
  | _ -> Alcotest.fail "expected one product");
  (match needs (Guard.For_testing.will (lit "f")) with
  | [ n ] ->
      checkb "promise offered"
        (List.exists (Literal.equal (lit "f")) n.Knowledge.promises)
  | _ -> Alcotest.fail "expected one product");
  (match needs (Guard.has (lit "f")) with
  | [ n ] ->
      checkb "nothing but waiting"
        (n.Knowledge.promises = [] && n.Knowledge.reserves = [])
  | _ -> Alcotest.fail "expected one product");
  (* combination mask ¬f|◇f = {C}: reservation offered so a promise can
     then pin C. *)
  (match needs (Guard.conj (Guard.hasnt (lit "f")) (Guard.For_testing.will (lit "f"))) with
  | [ n ] -> checkb "combo offers reserve" (n.Knowledge.reserves = [ Symbol.make "f" ])
  | _ -> Alcotest.fail "expected one product")

(* Property: status True implies the guard really holds at the firing
   instant on every trace consistent with the knowledge. *)
let status_true_sound (x, prefix_raw) =
  let gd = Guard.will_nf (Nf.of_expr x) in
  let alpha =
    Symbol.Set.union (Expr.symbols x) (Universe.of_names [ "e"; "f" ])
  in
  (* Build knowledge from a well-formed prefix. *)
  let prefix = if Trace.well_formed prefix_raw then prefix_raw else [] in
  let k =
    List.fold_left
      (fun (k, i) l -> (Knowledge.occurred l ~seqno:i k, i + 1))
      (Knowledge.empty, 1) prefix
    |> fst
  in
  match Knowledge.status k gd with
  | Knowledge.True ->
      (* Every maximal trace that begins with exactly the known prefix
         satisfies the guard at the prefix's end. *)
      List.for_all
        (fun u ->
          let n = List.length prefix in
          (not (Trace.equal (Trace.prefix n u) prefix))
          || Guard.eval u n gd)
        (Universe.maximal_traces alpha)
  | Knowledge.False | Knowledge.Unknown -> true

let suite =
  [
    Alcotest.test_case "basic status" `Quick test_basic_status;
    Alcotest.test_case "promise proof rules" `Quick test_promise_rules;
    Alcotest.test_case "reservations" `Quick test_reservation;
    Alcotest.test_case "never-occurring instances" `Quick test_never;
    Alcotest.test_case "pending order sensitivity" `Quick test_pending_order;
    Alcotest.test_case "arrival-order robustness" `Quick test_reorder_robustness;
    Alcotest.test_case "exact cover detection" `Quick test_cover_exactness;
    Alcotest.test_case "needs analysis" `Quick test_needs;
    qtest ~count:150 "status True is sound"
      (QCheck2.Gen.pair gen_expr (gen_trace_over alpha_ef))
      status_true_sound;
  ]
