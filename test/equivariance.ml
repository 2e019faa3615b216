(* Renaming equivariance of the shape memos (Automaton.build,
   Synth.guards and Gtable.lookup): after a first build, a renamed input
   must get exactly what a fresh build gives.  A case is one to three
   [Helpers.gen_expr_over] dependencies over e < f < g < h < i and one
   of their literals.  Each case clears the memos, builds the first
   dependency's automaton or guards, or the table of the literal's
   workflow guard, then renames the case twice onto five generated
   symbols, with and without arguments:

   - order-preserving (onto the targets in sorted order): the shape
     memo hits unless the renamed input is the original itself;
   - order-reversing: a dependency with two or more symbols changes
     shape, so its automaton must miss; everything must still agree.

   About one case in 500 reaches a residual guard that is not a fixpoint
   of renormalization, where a renaming that renormalizes
   (Guard.map_symbols) differs from a fresh compile; the deep budget
   meets dozens, and test_perf pins one such dependency.

   The quick budget runs in test_perf (@runtest), the deep one in
   check/check_slow (@check). *)

open Wf_core

(* Target symbols: plain and parametrized, some sharing a base, some
   named like the generator's own symbols so a renaming can shift them. *)
let pool =
  [
    Symbol.make "a";
    Symbol.make "f";
    Symbol.make "h";
    Symbol.make "z";
    Symbol.parametrized "x" [ "1" ];
    Symbol.parametrized "x" [ "2" ];
    Symbol.parametrized "x" [ "1"; "0" ];
    Symbol.parametrized "s_buy" [ "c42" ];
  ]

let names = [ "e"; "f"; "g"; "h"; "i" ]

(* The renaming of [names] onto [targets], position by position. *)
let onto targets =
  let image = List.combine (List.map Symbol.make names) targets in
  fun sym -> List.assoc sym image

type case = { deps : Expr.t list; lit : Literal.t; targets : Symbol.t list }

let gen =
  let open QCheck2.Gen in
  let* deps = list_size (int_range 1 3) (Helpers.gen_expr_over ~size:12 names) in
  let lits =
    Literal.Set.elements
      (List.fold_left
         (fun acc d -> Literal.Set.union acc (Expr.literals d))
         Literal.Set.empty deps)
  in
  let* lit = if lits = [] then Helpers.gen_literal else oneofl lits in
  let+ targets =
    map
      (fun l -> List.sort Symbol.compare (List.filteri (fun i _ -> i < 5) l))
      (shuffle_l pool)
  in
  { deps; lit; targets }

let print c =
  Format.asprintf "%a at %a onto %a"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Expr.pp)
    c.deps Literal.pp c.lit
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " < ") Symbol.pp)
    c.targets

let renaming ~reverse c = onto (if reverse then List.rev c.targets else c.targets)

let same_automaton a b =
  Automaton.num_states a = Automaton.num_states b
  && List.equal Literal.equal (Automaton.alphabet a) (Automaton.alphabet b)
  && List.for_all2
       (fun (s1, l1, d1) (s2, l2, d2) ->
         s1 = s2 && Literal.equal l1 l2 && d1 = d2)
       (Automaton.For_testing.transitions a) (Automaton.For_testing.transitions b)
  && List.for_all
       (fun s ->
         Nf.equal (Automaton.For_testing.state_nf a s) (Automaton.For_testing.state_nf b s)
         && Automaton.For_testing.is_accepting a s = Automaton.For_testing.is_accepting b s
         && Automaton.is_dead a s = Automaton.is_dead b s
         && Automaton.can_complete a s = Automaton.can_complete b s)
       (List.init (Automaton.num_states a) Fun.id)

let same_required a b =
  List.for_all
    (fun s ->
      Literal.Set.equal
        (Automaton.required_literals a s)
        (Automaton.required_literals b s))
    (List.init (Automaton.num_states a) Fun.id)

let fail fmt = Format.kasprintf (fun s -> QCheck2.Test.fail_report s) fmt

let automaton_stat name = List.assoc name (Automaton.For_testing.stats ())

let agrees_with_naive what d =
  let a = Automaton.build d and fresh = Automaton.For_testing.build_naive d in
  if not (same_automaton a fresh && same_required a fresh) then
    fail "%s: %a differs from a fresh build" what Expr.pp d

let automata c =
  let d = List.hd c.deps in
  Intern.clear_memos ();
  if automaton_stat "built" <> 0 || automaton_stat "renamed" <> 0 then
    fail "clear_memos left automaton counters set";
  ignore (Automaton.build d);
  if automaton_stat "built" <> 1 || automaton_stat "renamed" <> 0 then
    fail "the first build after clear_memos was not built";
  let d' = Expr.rename (renaming ~reverse:false c) d in
  agrees_with_naive "order-preserving renaming" d';
  let expected = if Expr.equal_syntactic d' d then 0 else 1 in
  if automaton_stat "renamed" <> expected then
    fail "order-preserving renaming: %d shape hits, expected %d"
      (automaton_stat "renamed") expected;
  let d'' = Expr.rename (renaming ~reverse:true c) d in
  agrees_with_naive "order-reversing renaming" d'';
  if
    Symbol.Set.cardinal (Expr.symbols d) >= 2
    && (automaton_stat "built" <> 2 || automaton_stat "renamed" <> expected)
  then fail "order-reversing renaming hit the shape memo";
  true

let synth_stat name = List.assoc name (Synth.For_testing.stats ())

let agrees_with_synthesis what d =
  let got = Synth.guards d in
  if
    not
      (List.equal Literal.equal (List.map fst got)
         (Literal.Set.elements (Expr.literals d)))
  then fail "%s: the guards of %a are not one per literal" what Expr.pp d;
  List.iter
    (fun (l, g) ->
      if
        not
          (Guard.equal g (Synth.guard d l)
          && Guard.equal g (Synth.For_testing.guard_naive d l))
      then
        fail "%s: G(%a, %a) differs from a fresh synthesis" what Expr.pp d
          Literal.pp l)
    got

(* Synth.guards has no exact memo, so every order-preserving renaming,
   the original included, is a shape hit. *)
let synthesis c =
  let d = List.hd c.deps in
  Intern.clear_memos ();
  if synth_stat "synthesized" <> 0 || synth_stat "renamed" <> 0 then
    fail "clear_memos left synthesis counters set";
  ignore (Synth.guards d);
  if synth_stat "synthesized" <> 1 || synth_stat "renamed" <> 0 then
    fail "the first synthesis after clear_memos was not synthesized";
  agrees_with_synthesis "order-preserving renaming"
    (Expr.rename (renaming ~reverse:false c) d);
  if synth_stat "renamed" <> 1 then
    fail "order-preserving renaming: %d shape hits, expected 1"
      (synth_stat "renamed");
  agrees_with_synthesis "order-reversing renaming"
    (Expr.rename (renaming ~reverse:true c) d);
  if
    Symbol.Set.cardinal (Expr.symbols d) >= 2
    && (synth_stat "synthesized" <> 2 || synth_stat "renamed" <> 1)
  then fail "order-reversing renaming hit the shape memo";
  true

(* The guard on [lit] of the workflow [deps]. *)
let workflow_guard deps lit = (Compile.plan (Compile.compile deps) lit).guard

let table_stat name = List.assoc name (Gtable.stats ())

let agrees_with_compile what g =
  match (Gtable.lookup g, Gtable.For_testing.compile g) with
  | None, None -> ()
  | Some t, Some fresh ->
      let n = Gtable.num_states fresh in
      if
        Gtable.For_testing.fingerprint t <> Gtable.For_testing.fingerprint fresh
        || Gtable.num_states t <> n
        || not
             (List.for_all
                (fun s ->
                  Guard.compare (Gtable.For_testing.guard_of t s) (Gtable.For_testing.guard_of fresh s)
                  = 0)
                (List.init n Fun.id))
      then fail "%s: the table of %a differs from a fresh compile" what Guard.pp g
  | _ -> fail "%s: lookup and compile disagree on compiling %a" what Guard.pp g

let tables c =
  Intern.clear_memos ();
  if table_stat "renamed_guards" <> 0 || table_stat "compiled_states" <> 0 then
    fail "clear_memos left table counters set";
  let g = workflow_guard c.deps c.lit in
  ignore (Gtable.lookup g);
  if table_stat "renamed_guards" <> 0 then
    fail "the first lookup after clear_memos was renamed";
  let synth rho =
    workflow_guard (List.map (Expr.rename rho) c.deps) (Literal.rename rho c.lit)
  in
  let g' = synth (renaming ~reverse:false c) in
  agrees_with_compile "order-preserving renaming" g';
  let expected = if Guard.equal g' g then 0 else 1 in
  if table_stat "renamed_guards" <> expected then
    fail "order-preserving renaming: %d shape hits, expected %d"
      (table_stat "renamed_guards") expected;
  agrees_with_compile "order-reversing renaming" (synth (renaming ~reverse:true c));
  true
