(* The slow exhaustive suite, behind the @check alias (dune build
   @check).  The tier-1 quick tests in test/test_check.ml pin the small
   mc_* explorations; this suite runs the expensive ones — the paper's
   travel example exhaustively, the full naive-vs-DPOR agreement check
   on mc_indep, and deeper crash bounds — that would bloat `dune
   runtest` past its edit-compile-test budget.  It also runs the
   shape-memo equivariance properties (test/equivariance.ml) at a deep
   budget. *)

open Wf_core
module Mc = Wf_check.Mc

let failures = ref 0

let say fmt = Format.printf (fmt ^^ "@.")

let fail fmt =
  incr failures;
  Format.printf ("  FAIL: " ^^ fmt ^^ "@.")

let load name =
  (Wf_lang.Elaborate.load_file (Filename.concat "../../specs" name))
    .Wf_lang.Elaborate.def

let expect_clean name (r : Mc.report) =
  say "%s [%s]: %d states, %d runs, %d recoveries" name r.Mc.r_mode
    r.Mc.r_states r.Mc.r_traces r.Mc.r_recoveries;
  if not r.Mc.r_complete then fail "%s: exploration incomplete" name;
  List.iter
    (fun (d : Mc.divergence) ->
      fail "%s: divergence [%s] %s" name d.Mc.d_kind d.Mc.d_detail)
    r.Mc.r_divergences;
  r

let projections wf traces =
  let deps = Wf_tasks.Workflow_def.dependencies wf in
  List.map
    (fun d ->
      let ds = Expr.symbols d in
      traces
      |> List.map (List.filter (fun l -> Symbol.Set.mem (Literal.symbol l) ds))
      |> List.sort_uniq compare)
    deps

let () =
  (* The paper's running example, exhaustively: every interleaving of
     the travel workflow satisfies its dependencies. *)
  let _ =
    expect_clean "travel.wf" (Mc.check ~spec_name:"travel.wf" (load "travel.wf"))
  in

  (* Full verdict agreement between naive enumeration and the
     reduction, on the spec built to maximize their gap. *)
  let wf = load "mc_indep.wf" in
  let dpor = expect_clean "mc_indep.wf" (Mc.check ~spec_name:"mc_indep.wf" wf) in
  let naive =
    expect_clean "mc_indep.wf"
      (Mc.check ~dpor:false ~spec_name:"mc_indep.wf" wf)
  in
  say "reduction ratio: %.1fx"
    (float_of_int naive.Mc.r_states /. float_of_int dpor.Mc.r_states);
  if naive.Mc.r_states < 3 * dpor.Mc.r_states then
    fail "reduction below 3x (%d naive vs %d dpor)" naive.Mc.r_states
      dpor.Mc.r_states;
  if
    projections wf naive.Mc.r_closed_traces
    <> projections wf dpor.Mc.r_closed_traces
  then fail "naive and DPOR disagree on per-dependency projections";

  (* Crash exploration beyond the quick tier's depth-1 pin. *)
  let _ =
    expect_clean "mc_pair.wf@2"
      (Mc.check ~crash_depth:2 ~spec_name:"mc_pair.wf" (load "mc_pair.wf"))
  in
  let _ =
    expect_clean "mc_trigger.wf@1"
      (Mc.check ~crash_depth:1 ~spec_name:"mc_trigger.wf" (load "mc_trigger.wf"))
  in
  let _ =
    expect_clean "mc_indep.wf@1"
      (Mc.check ~crash_depth:1 ~max_states:2_000_000
         ~spec_name:"mc_indep.wf" (load "mc_indep.wf"))
  in

  (* Renaming equivariance of the shape memos at the deep budget (the
     quick one runs in test_perf), on a seed of its own so the two
     budgets draw different cases. *)
  List.iter
    (fun (name, count, prop) ->
      let test =
        QCheck2.Test.make ~count ~print:Equivariance.print ~name
          Equivariance.gen prop
      in
      match
        QCheck2.Test.check_exn
          ~rand:(Random.State.make [| Helpers.prop_seed () + 1 |])
          test
      with
      | () -> say "%s: %d cases" name count
      | exception e -> fail "%s: %s" name (Printexc.to_string e))
    [
      ("renamed automata = fresh builds", 2_000, Equivariance.automata);
      ("renamed dependency guards = fresh syntheses", 5_000, Equivariance.synthesis);
      ("renamed guard tables = fresh compiles", 20_000, Equivariance.tables);
    ];

  (* The channel's invariants at every step of scheduler runs, and each
     stepped run equal to one run, over a deeper seed set than tier 1's
     (test/channel_sweep.ml). *)
  let sweep =
    Channel_sweep.sweep ~spec_dir:"../../specs"
      ~seeds:(List.init 20 (fun i -> Int64.of_int (i + 1)))
  in
  say "channel invariant sweep: %d runs, %d checked steps"
    sweep.Channel_sweep.runs sweep.Channel_sweep.steps;
  List.iter (fun f -> fail "channel sweep: %s" f) sweep.Channel_sweep.failures;

  if !failures > 0 then begin
    say "@check: %d failures" !failures;
    exit 1
  end;
  say "@check: all exhaustive verifications clean"
