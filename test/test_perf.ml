(* Differential suites for the performance layer: the interned/memoized
   kernels (residuation, guard synthesis, automaton construction, the
   shape and compile-once memos) must agree structurally with the naive
   reference implementations that remain the oracle. *)

open Wf_core
open Helpers

(* --- interning ----------------------------------------------------------- *)

let test_intern_ids () =
  let t1 = [ lit "e"; lit "~f" ] and t2 = [ lit "e"; lit "~f" ] in
  check Alcotest.int "equal terms intern to the same id" (Intern.For_testing.term t1)
    (Intern.For_testing.term t2);
  checkb "distinct terms intern apart"
    (Intern.For_testing.term [ lit "e" ] <> Intern.For_testing.term [ lit "f" ]);
  checkb "term id differs from literal id"
    (Intern.literal (lit "e") <> Intern.For_testing.term [ lit "f" ]);
  let n1 = Nf.of_expr (Expr.choice (Expr.event "e") (Expr.event "f")) in
  let n2 = Nf.of_expr (Expr.choice (Expr.event "f") (Expr.event "e")) in
  check Alcotest.int "normal forms intern by structure" (Intern.nf n1)
    (Intern.nf n2);
  checkb "stats report live tables"
    (List.length (Intern.For_testing.stats ()) = 4
    && List.for_all (fun (_, n) -> n >= 0) (Intern.For_testing.stats ()))

let test_clear_memos () =
  let d = Expr.choice (Expr.seq e f) ng in
  let before = Synth.guard d (lit "e") in
  Intern.clear_memos ();
  let after = Synth.guard d (lit "e") in
  checkb "cleared memos recompute the same guard" (Guard.equal before after)

(* --- memoized residuation ------------------------------------------------ *)

let residue_agrees =
  qprop "memoized residuation = naive residuation"
    QCheck2.Gen.(pair gen_expr gen_literal)
    (fun (d, l) ->
      let nf_ = Nf.of_expr d in
      Nf.equal (Residue.nf nf_ l) (Residue.nf_naive nf_ l))

let residue_disabled_agrees =
  qprop "residuation with interning disabled = naive"
    QCheck2.Gen.(pair gen_expr gen_literal)
    (fun (d, l) ->
      let nf_ = Nf.of_expr d in
      Intern.set_enabled false;
      let off = Residue.nf nf_ l in
      Intern.set_enabled true;
      Nf.equal off (Residue.nf_naive nf_ l))

(* --- shared-memo guard synthesis ----------------------------------------- *)

let guard_agrees =
  qprop "shared-memo guard synthesis = naive"
    QCheck2.Gen.(pair gen_expr gen_literal)
    (fun (d, l) -> Guard.equal (Synth.guard d l) (Synth.For_testing.guard_naive d l))

let compiled_guards_agree =
  qprop ~count:100 "compiled guards = per-literal naive conjunction"
    gen_expr_pair
    (fun (d1, d2) ->
      let deps = [ d1; d2 ] in
      List.for_all
        (fun (p : Compile.event_plan) ->
          Guard.equal p.guard
            (Guard.conj_all
               (List.filter_map
                  (fun d ->
                    if Literal.Set.mem p.literal (Expr.literals d) then
                      Some (Synth.For_testing.guard_naive d p.literal)
                    else None)
                  deps)))
        (Compile.plans (Compile.compile deps)))

(* Compilation through the memos (per-dependency synthesis behind the
   shape memo) must give what the naive kernels give: every literal's
   guard and watch set, on every spec and on five renamed copies of the
   travel workflow, where four copies of each dependency are shape
   hits. *)
let test_compile_memo_off () =
  let same (p : Compile.event_plan) (q : Compile.event_plan) =
    Literal.equal p.literal q.literal
    && Guard.equal p.guard q.guard
    && Symbol.Set.equal p.watched q.watched
  in
  let copy i =
    Expr.rename (fun sym -> Symbol.make (Symbol.name sym ^ string_of_int i))
  in
  let travel5 =
    List.concat_map
      (fun i -> List.map (fun (_, d) -> copy i d) (Catalog.travel_workflow ()))
      (List.init 5 Fun.id)
  in
  let cases =
    ("travel x5", travel5)
    :: List.map
         (fun path ->
           ( Filename.basename path,
             Wf_tasks.Workflow_def.dependencies
               (Wf_lang.Elaborate.load_file path).Wf_lang.Elaborate.def ))
         (Test_conformance.spec_files ())
  in
  List.iter
    (fun (name, deps) ->
      Intern.clear_memos ();
      let on = Compile.compile deps in
      let off =
        Intern.set_enabled false;
        Fun.protect
          ~finally:(fun () -> Intern.set_enabled true)
          (fun () -> Compile.compile deps)
      in
      checkb (name ^ ": same alphabet")
        (Symbol.Set.equal (Compile.alphabet on) (Compile.alphabet off));
      checkb (name ^ ": same guards and watch sets")
        (List.equal same (Compile.plans on) (Compile.plans off)))
    cases;
  checkb "the travel copies hit the synthesis shape memo"
    (Intern.clear_memos ();
     ignore (Compile.compile travel5);
     Synth.For_testing.stats () = [ ("synthesized", 3); ("renamed", 12) ])

(* --- automaton construction ---------------------------------------------- *)

let same_automaton = Equivariance.same_automaton

(* Half the cases draw from four symbols, the widest alphabet whose
   states are identified by signature over the 633-trace universe. *)
let automaton_agrees =
  qprop "fast automaton build = naive build (states, edges, flags)"
    QCheck2.Gen.(oneof [ gen_expr; gen_expr_over [ "e"; "f"; "g"; "h" ] ])
    (fun d -> same_automaton (Automaton.build d) (Automaton.For_testing.build_naive d))

let automaton_disabled_is_naive =
  qprop ~count:50 "build with interning disabled = naive build" gen_expr
    (fun d ->
      Intern.set_enabled false;
      let off = Automaton.build d in
      Intern.set_enabled true;
      same_automaton off (Automaton.For_testing.build_naive d))

(* --- shape memos ------------------------------------------------------------ *)

(* Renaming equivariance (see Equivariance): a renamed dependency's
   automaton and a renamed guard's table equal fresh builds, whether
   the shape memo hits (order-preserving) or must miss (reversing). *)
let automata_equivariant =
  qprop ~count:100 ~print:Equivariance.print
    "renamed automata = fresh builds (shape memo)" Equivariance.gen
    Equivariance.automata

let synthesis_equivariant =
  qprop ~count:200 ~print:Equivariance.print
    "renamed dependency guards = fresh syntheses (shape memo)" Equivariance.gen
    Equivariance.synthesis

let tables_equivariant =
  qprop ~count:1000 ~print:Equivariance.print
    "renamed guard tables = fresh compiles (shape memo)" Equivariance.gen
    Equivariance.tables

(* A guard whose table holds a residual that renormalization rewrites
   (two of its products merge on a second pass): a renamed table must
   keep that residual exactly as a fresh compile builds it, which a
   renaming through Guard.map_symbols would not. *)
let test_rename_keeps_residuals () =
  let d =
    Expr.choice
      (Expr.seq (Expr.conj nf (Expr.complement "h")) ng)
      (Expr.seq ne g)
  in
  let case =
    {
      Equivariance.deps = [ d ];
      lit = lit "~e";
      targets =
        List.sort Symbol.compare (List.filteri (fun i _ -> i >= 3) Equivariance.pool);
    }
  in
  let tbl =
    match
      Gtable.For_testing.compile (Equivariance.workflow_guard case.deps case.lit)
    with
    | Some t -> t
    | None -> Alcotest.fail "the guard should compile"
  in
  checkb "some residual is not a fixpoint of renormalization"
    (List.exists
       (fun s ->
         let r = Gtable.For_testing.guard_of tbl s in
         not (Guard.equal (Guard.map_symbols Fun.id r) r))
       (List.init (Gtable.num_states tbl) Fun.id));
  checkb "renamed tables equal fresh compiles" (Equivariance.tables case)

(* A dependency one of whose guards renormalization rewrites: a shape
   hit must rename that guard exactly as a fresh synthesis builds it,
   which a renaming through Guard.map_symbols would not. *)
let test_rename_keeps_guards () =
  let d =
    Expr.seq (Expr.choice ne g)
      (Expr.choice_all [ Expr.seq (Expr.complement "i") ne; g; f ])
  in
  let case =
    {
      Equivariance.deps = [ d ];
      lit = lit "~i";
      targets =
        List.sort Symbol.compare (List.filteri (fun i _ -> i >= 3) Equivariance.pool);
    }
  in
  checkb "some guard is not a fixpoint of renormalization"
    (List.exists
       (fun (_, gd) -> not (Guard.equal (Guard.map_symbols Fun.id gd) gd))
       (Synth.guards d));
  checkb "renamed guards equal fresh syntheses" (Equivariance.synthesis case)

(* --- compile-once memos ---------------------------------------------------- *)

(* A repeated build or compile is the same value; after [clear_memos]
   it is a fresh but structurally equal one; with interning disabled
   nothing is memoized. *)
let test_memo_contract () =
  let deps = List.map snd (Catalog.travel_workflow ()) in
  let d = List.hd deps in
  let same_compiled a b =
    List.equal
      (fun (p : Compile.event_plan) (q : Compile.event_plan) ->
        Literal.equal p.literal q.literal
        && Guard.equal p.guard q.guard
        && Symbol.Set.equal p.watched q.watched)
      (Compile.plans a) (Compile.plans b)
  in
  Intern.clear_memos ();
  let a1 = Automaton.build d and c1 = Compile.compile deps in
  checkb "repeated build is the memoized value" (Automaton.build d == a1);
  checkb "repeated compile is the memoized value" (Compile.compile deps == c1);
  checkb "structurally equal key hits the memo"
    (Compile.compile (List.map Fun.id deps) == c1);
  Intern.clear_memos ();
  let a2 = Automaton.build d and c2 = Compile.compile deps in
  checkb "cleared build is fresh" (a2 != a1);
  checkb "cleared build is structurally equal" (same_automaton a1 a2);
  checkb "cleared compile is fresh" (c2 != c1);
  checkb "cleared compile is structurally equal" (same_compiled c1 c2);
  let a3, a4, c3, c4 =
    Intern.set_enabled false;
    Fun.protect
      ~finally:(fun () -> Intern.set_enabled true)
      (fun () ->
        ( Automaton.build d,
          Automaton.build d,
          Compile.compile deps,
          Compile.compile deps ))
  in
  checkb "disabled builds are never shared"
    (a3 != a4 && a3 != a2 && same_automaton a3 a2);
  checkb "disabled compiles are never shared"
    (c3 != c4 && c3 != c2 && same_compiled c3 c2);
  checkb "the memo survives a disabled interval" (Automaton.build d == a2)

(* The run plan is keyed on the spec's data: a renamed copy shares it, a
   moved task does not. *)
let test_plan_memo () =
  let open Wf_tasks in
  let open Wf_scheduler in
  let plan wf =
    match Run_plan.of_workflow wf with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let wf = Test_sched.travel_wf () in
  Intern.clear_memos ();
  let p = plan wf in
  checkb "repeated plan is the memoized value" (plan wf == p);
  checkb "a renamed copy shares the plan"
    (plan { wf with Workflow_def.name = "renamed" } == p);
  let moved =
    {
      wf with
      Workflow_def.tasks =
        List.map
          (fun (t : Workflow_def.task) -> { t with site = t.site + 1 })
          wf.tasks;
    }
  in
  checkb "a moved task gets its own plan" (plan moved != p);
  Intern.set_enabled false;
  let off1, off2 =
    Fun.protect ~finally:(fun () -> Intern.set_enabled true) (fun () ->
        (plan wf, plan wf))
  in
  checkb "disabled plans are never shared" (off1 != off2 && off1 != p);
  Intern.clear_memos ();
  checkb "cleared plan is fresh" (plan wf != p)

(* --- Param_sched's instance cache ---------------------------------------- *)

open Wf_scheduler

type burst_ev = Commit of int | Prepare of int

(* A param-burst-shaped run: the saga template behind Flow admission,
   64 synchronized open-loop sources at half the estimated capacity, and
   a virtual server charging a fixed quantum per input plus a share per
   decision counted by [work].  Returns the drained engine. *)
let burst_run ~jobs ~seed =
  let s0 = 1.0 and s1 = 0.04 and watermark = 10 and sources = 64 in
  let flow =
    {
      Flow.default_config with
      shed_watermark = watermark;
      retry_base = 1.0;
      retry_backoff = 2.0;
      retry_max = 64.0;
      probe_every = 256;
    }
  in
  let capacity =
    1.0 /. ((2.0 *. s0) +. (s1 *. (2.0 +. (2.0 *. float_of_int watermark))))
  in
  let rng = Wf_sim.Rng.create (Int64.of_int seed) in
  let mean = float_of_int sources /. (4.0 *. 0.5 *. capacity) in
  let src = Array.make sources 0.0 in
  let arrivals =
    Array.init jobs (fun j ->
        let s = j mod sources in
        src.(s) <- src.(s) +. Flow.arrival_delay Flow.Burst ~rng ~now:src.(s) ~mean;
        src.(s))
  in
  Array.sort Float.compare arrivals;
  let eng =
    Param_sched.create ~flow ~store_seed:(Int64.of_int seed) [ Test_fleet.saga ]
  in
  let heap = Wf_sim.Heap.create () and seq = ref 0 in
  let push key ev =
    Wf_sim.Heap.push heap ~key ~seq:!seq ev;
    incr seq
  in
  Array.iteri (fun j t -> push t (Commit j)) arrivals;
  let free_at = ref 0.0 in
  let charge now w0 =
    free_at :=
      Float.max now !free_at +. s0
      +. (s1 *. float_of_int (Param_sched.work eng - w0))
  in
  let sym b j = Symbol.parametrized b [ string_of_int j ] in
  let rec loop () =
    if not (Wf_sim.Heap.is_empty heap) then begin
        let now = Wf_sim.Heap.min_key heap in
        let ev = Wf_sim.Heap.take heap in
        let w0 = Param_sched.work eng in
        (match ev with
        | Commit j -> (
            match Param_sched.attempt eng (sym "c" j) with
            | Param_sched.Busy { retry_after } ->
                push (now +. retry_after) (Commit j)
            | Param_sched.Parked ->
                charge now w0;
                push !free_at (Prepare j)
            | Param_sched.Accepted | Param_sched.Already -> charge now w0
            | Param_sched.Rejected -> Alcotest.fail "commit rejected")
        | Prepare j ->
            Param_sched.occurred eng (Literal.pos (sym "p" j));
            charge now w0);
        loop ()
    end
  in
  loop ();
  eng

(* The cache must leave the virtual service model alone — [work] still
   counts every decision, pinned to the value measured before the cache
   existed — while each job's closed instance is evaluated about twice:
   once when its commit parks, once when its prepare moves the fates. *)
let test_burst_counts () =
  let jobs = 2000 in
  let eng = burst_run ~jobs ~seed:1 in
  check Alcotest.int "drained" 0 (Param_sched.parked_count eng);
  check Alcotest.int "two events per job" (2 * jobs)
    (Trace.length (Param_sched.trace eng));
  check Alcotest.int "work: every decision counted" 25556 (Param_sched.work eng);
  let evals = Param_sched.evaluations eng in
  if float_of_int evals > 2.1 *. float_of_int jobs then
    Alcotest.failf "%d instance evaluations for %d jobs (> 2.1 per job)" evals
      jobs

(* Symbols compare by their integer keys: no compare on the
   param-burst shape (saga bindings [c(j)], [p(j)] over 2,000 jobs) or
   on a fault-free travel run falls back to walking a name. *)
let test_no_string_walks () =
  let walks f =
    let w0 = Symbol.For_testing.string_walks () in
    ignore (f ());
    Symbol.For_testing.string_walks () - w0
  in
  check Alcotest.int "param-burst shape" 0
    (walks (fun () -> burst_run ~jobs:2000 ~seed:1));
  check Alcotest.int "fault-free travel" 0
    (walks (fun () -> Event_sched.run (Test_sched.travel_wf ())))

let suite =
  [
    Alcotest.test_case "interned ids are canonical" `Quick test_intern_ids;
    Alcotest.test_case "clear_memos preserves results" `Quick test_clear_memos;
    residue_agrees;
    residue_disabled_agrees;
    guard_agrees;
    compiled_guards_agree;
    Alcotest.test_case "compile with memos = compile without, on every spec"
      `Quick test_compile_memo_off;
    automaton_agrees;
    automaton_disabled_is_naive;
    automata_equivariant;
    synthesis_equivariant;
    tables_equivariant;
    Alcotest.test_case "renamed tables keep unrenormalized residuals" `Quick
      test_rename_keeps_residuals;
    Alcotest.test_case "renamed guards keep unrenormalized guards" `Quick
      test_rename_keeps_guards;
    Alcotest.test_case "compile-once memo contract" `Quick test_memo_contract;
    Alcotest.test_case "run plan memo keyed on spec data" `Quick test_plan_memo;
    Alcotest.test_case "param-burst shape: work pinned, evaluations bounded"
      `Quick test_burst_counts;
    Alcotest.test_case "symbol compares walk no name" `Quick test_no_string_walks;
  ]
