(* The model-checker suite (tier 1, quick slice): exhaustive
   verification pins for the small mc_* specs, the naive-vs-DPOR
   verdict-agreement check, counterexample round-trips (including the
   checked-in regression file), the delivery-commutation property the
   reduction relies on, the controlled Netsim mode, and the pinned
   conformance seed streams.  The heavyweight exhaustive runs live in
   test/check (the @check alias). *)

open Wf_core
open Helpers
module Mc = Wf_check.Mc
module Step = Wf_scheduler.Step_sched
module Netsim = Wf_sim.Netsim

let spec_dir =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) "../specs";
      "../specs";
      "specs";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> "../specs"

let data_file name =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) ("data/" ^ name);
      Filename.concat "data" name;
      Filename.concat "test/data" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some f -> f
  | None -> Filename.concat "data" name

let load name =
  (Wf_lang.Elaborate.load_file (Filename.concat spec_dir name))
    .Wf_lang.Elaborate.def

(* The guard tamper used by every counterexample test: strip the
   synthesized protection from both commits of commit_order(t1, t2).
   One ⊤ alone is survivable — if c_t2 jumps the queue, c_t1's honest
   guard rejects and t1 aborts, which still satisfies the dependency —
   so the tamper plants ⊤ on both sides, and some interleaving commits
   in the wrong order with no compensation left. *)
let tamper =
  [ (Literal.event "c_t1", Guard.top); (Literal.event "c_t2", Guard.top) ]

let clean_report ?(crash_depth = 0) ?(dpor = true) name =
  Mc.check ~crash_depth ~dpor ~spec_name:name (load name)

(* --- Exhaustive verification pins ---------------------------------------- *)

let test_pair_exhaustive () =
  let r = clean_report "mc_pair.wf" in
  checkb "complete" r.Mc.r_complete;
  check Alcotest.(list string) "no divergences" []
    (List.map (fun d -> d.Mc.d_detail) r.Mc.r_divergences);
  check Alcotest.int "states (pinned)" 91 r.Mc.r_states;
  check Alcotest.int "maximal runs (pinned)" 3 r.Mc.r_traces;
  checkb "every closed trace decides every symbol"
    (let syms = Step.symbols (Step.build (load "mc_pair.wf")) in
     List.for_all
       (fun tr ->
         List.for_all
           (fun s -> List.exists (fun l -> Symbol.equal (Literal.symbol l) s) tr)
           syms)
       r.Mc.r_closed_traces)

let test_trigger_exhaustive () =
  let r = clean_report "mc_trigger.wf" in
  checkb "complete" r.Mc.r_complete;
  check Alcotest.(list string) "no divergences" []
    (List.map (fun d -> d.Mc.d_detail) r.Mc.r_divergences);
  check Alcotest.int "states (pinned)" 242 r.Mc.r_states;
  check Alcotest.int "maximal runs (pinned)" 2 r.Mc.r_traces

let test_crash_depth () =
  let r = clean_report ~crash_depth:1 "mc_pair.wf" in
  checkb "complete" r.Mc.r_complete;
  check Alcotest.(list string) "no divergences under crashes" []
    (List.map (fun d -> d.Mc.d_detail) r.Mc.r_divergences);
  check Alcotest.int "states (pinned)" 710 r.Mc.r_states;
  checkb "crashes actually exercised recovery" (r.Mc.r_recoveries > 0);
  checkb "crash exploration is a superset"
    (r.Mc.r_states > (clean_report "mc_pair.wf").Mc.r_states)

let test_torn_writes () =
  (* Torn-write crash placements share the crash budget: every crash
     point also probes that a frame torn mid-write salvages back to the
     journal-recovery state.  A clean report is the store-soundness
     claim for the whole reachable state space of the spec. *)
  let r =
    Mc.check ~crash_depth:1 ~torn_writes:true ~spec_name:"mc_pair.wf"
      (load "mc_pair.wf")
  in
  checkb "complete" r.Mc.r_complete;
  check Alcotest.(list string) "no store divergences" []
    (List.map (fun d -> d.Mc.d_detail) r.Mc.r_divergences);
  check Alcotest.int "states (pinned)" 838 r.Mc.r_states;
  checkb "torn placements add states over plain crashes"
    (r.Mc.r_states > (clean_report ~crash_depth:1 "mc_pair.wf").Mc.r_states);
  checkb "recoveries exercised" (r.Mc.r_recoveries > 0)

(* --- Naive vs DPOR ------------------------------------------------------- *)

(* The reduction prunes reorderings of independent events, so the two
   modes disagree on closed-trace *sequences* (630 vs 25 on mc_indep)
   but must agree on everything the oracle looks at: the set of
   literal sets and the set of per-dependency projections. *)
let dep_projections wf traces =
  let deps = Wf_tasks.Workflow_def.dependencies wf in
  List.map
    (fun d ->
      let ds = Expr.symbols d in
      traces
      |> List.map
           (List.filter (fun l -> Symbol.Set.mem (Literal.symbol l) ds))
      |> List.sort_uniq compare)
    deps

let test_naive_vs_dpor () =
  let wf = load "mc_indep.wf" in
  let dpor = Mc.check ~spec_name:"mc_indep" wf in
  let naive = Mc.check ~dpor:false ~spec_name:"mc_indep" wf in
  checkb "both complete" (dpor.Mc.r_complete && naive.Mc.r_complete);
  checkb "both clean"
    (dpor.Mc.r_divergences = [] && naive.Mc.r_divergences = []);
  checkb "reduction is at least 3x"
    (naive.Mc.r_states >= 3 * dpor.Mc.r_states);
  checkb "DPOR prunes maximal runs" (dpor.Mc.r_traces < naive.Mc.r_traces);
  let lit_sets traces = List.sort_uniq compare (List.map (List.sort Literal.compare) traces) in
  check
    Alcotest.(list int)
    "same literal sets"
    (List.map List.length (lit_sets naive.Mc.r_closed_traces))
    (List.map List.length (lit_sets dpor.Mc.r_closed_traces));
  checkb "same literal sets (contents)"
    (lit_sets naive.Mc.r_closed_traces = lit_sets dpor.Mc.r_closed_traces);
  checkb "same per-dependency projections"
    (dep_projections wf naive.Mc.r_closed_traces
    = dep_projections wf dpor.Mc.r_closed_traces)

let test_coupling_classes () =
  let classes = Mc.coupling_classes (load "mc_indep.wf") in
  checkb "at least two classes" (List.length classes >= 2);
  let class_of sym =
    List.find_opt (List.exists (fun s -> Symbol.name s = sym)) classes
  in
  checkb "t and u pairs are decoupled"
    (class_of "c_t1" <> class_of "c_u1");
  checkb "ordered pair shares a class" (class_of "c_t1" = class_of "c_t2")

(* --- Counterexamples ----------------------------------------------------- *)

let test_tamper_roundtrip () =
  let wf = load "mc_pair.wf" in
  let r =
    Mc.check ~guard_overrides:tamper ~spec_name:"mc_pair(tampered)" wf
  in
  checkb "tampered guard caught" (r.Mc.r_divergences <> []);
  let d = List.hd r.Mc.r_divergences in
  let tmp = Filename.temp_file "wfmc_cex" ".jsonl" in
  Mc.write_counterexample wf d tmp;
  (match Wf_obs.Trace.validate_file tmp with
  | Ok n -> checkb "validates as trace JSONL" (n = List.length d.Mc.d_schedule)
  | Error e -> Alcotest.failf "counterexample does not validate: %s" e);
  (match Mc.load_schedule tmp with
  | Error e -> Alcotest.failf "cannot reload counterexample: %s" e
  | Ok sched -> (
      checkb "schedule survives the round-trip"
        (List.for_all2
           (fun a b -> Mc.Tkey.compare a b = 0)
           sched d.Mc.d_schedule);
      match Mc.replay ~guard_overrides:tamper wf sched with
      | Error e -> Alcotest.failf "replay failed: %s" e
      | Ok (divs, _) -> checkb "divergence reproduces on replay" (divs <> [])));
  Sys.remove tmp

(* Regression: the checked-in counterexample (generated by the same
   tamper) must keep reproducing its divergence as the code evolves —
   if scheduling or guard synthesis drifts, this fails loudly instead
   of silently invalidating old counterexamples. *)
let test_stored_counterexample () =
  let path = data_file "counterexample.jsonl" in
  checkb "test/data/counterexample.jsonl present" (Sys.file_exists path);
  match Mc.load_schedule path with
  | Error e -> Alcotest.failf "cannot load stored counterexample: %s" e
  | Ok sched -> (
      checkb "nonempty schedule" (sched <> []);
      match Mc.replay ~guard_overrides:tamper (load "mc_pair.wf") sched with
      | Error e -> Alcotest.failf "stored replay failed: %s" e
      | Ok (divs, trace) ->
          checkb "stored divergence reproduces" (divs <> []);
          checkb "replay realizes a closed trace" (trace <> []))

let test_stored_clean_on_honest_guards () =
  (* The same schedule on the untampered spec must NOT diverge: the bug
     is in the planted guard, not the schedule. *)
  match Mc.load_schedule (data_file "counterexample.jsonl") with
  | Error e -> Alcotest.failf "cannot load stored counterexample: %s" e
  | Ok sched -> (
      match Mc.replay (load "mc_pair.wf") sched with
      | Error _ ->
          (* With honest guards the tampered schedule may be outright
             inapplicable (a message never sent); that is also a pass. *)
          ()
      | Ok (divs, _) -> checkb "honest guards stay clean" (divs = []))

(* --- Commutation property ------------------------------------------------ *)

(* The independence relation DPOR prunes with: two enabled deliveries
   whose coupling-class footprints are disjoint must commute — either
   order, closed deterministically, realizes the same literal set, the
   same per-dependency projections, and the same violation counters.
   Random walks through mc_indep generate the states to test at. *)
module IntSet = Set.Make (Int)

let commutation_env =
  (* lazy: spec files are materialized by dune only at test run time,
     not when the module initializes *)
  lazy
    (let wf = load "mc_indep.wf" in
     let deps = Wf_tasks.Workflow_def.dependencies wf in
     let class_of =
       let tbl = Hashtbl.create 32 in
       List.iteri
         (fun i cls ->
           List.iter (fun s -> Hashtbl.replace tbl (Symbol.name s) i) cls)
         (Mc.coupling_classes wf);
       fun s -> Hashtbl.find_opt tbl (Symbol.name s)
     in
     (wf, deps, class_of))

let test_commutation =
  qprop ~count:30 "disjoint-footprint deliveries commute"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 14))
    (fun (seed, len) ->
      let wf, deps, class_of = Lazy.force commutation_env in
      let footprint t pq =
        let a, b = pq in
        let syms =
          match Step.queue_head t pq with
          | Some m -> a :: b :: Wf_scheduler.Messages.symbols m
          | None -> [ a; b ]
        in
        List.fold_left
          (fun acc s ->
            match (acc, class_of s) with
            | Some set, Some i -> Some (IntSet.add i set)
            | _ -> None)
          (Some IntSet.empty) syms
      in
      let closed_view t =
        Step.run_closing t;
        let tr = Step.trace t in
        let projs =
          List.map
            (fun d ->
              let ds = Expr.symbols d in
              List.filter (fun l -> Symbol.Set.mem (Literal.symbol l) ds) tr)
            deps
        in
        ( List.sort Literal.compare tr,
          projs,
          Step.forced t,
          Step.uncontrollable t )
      in
      let t = Step.build wf in
      let rng = Random.State.make [| seed |] in
      let rec walk k =
        if k > 0 then begin
          let ts =
            List.map (fun i -> `A i) (Step.enabled_attempts t)
            @ List.map (fun pq -> `D pq) (Step.nonempty_queues t)
          in
          match ts with
          | [] -> ()
          | _ ->
              (match List.nth ts (Random.State.int rng (List.length ts)) with
              | `A i -> Step.do_attempt t i
              | `D pq -> Step.do_deliver t pq);
              walk (k - 1)
        end
      in
      walk len;
      let queues = Step.nonempty_queues t in
      let disjoint_pairs =
        List.concat_map
          (fun q1 ->
            List.filter_map
              (fun q2 ->
                if compare q1 q2 >= 0 then None
                else
                  match (footprint t q1, footprint t q2) with
                  | Some f1, Some f2 when IntSet.disjoint f1 f2 ->
                      Some (q1, q2)
                  | _ -> None)
              queues)
          queues
      in
      (* Cap the per-case work; any disjoint pair is as good as all. *)
      let pairs =
        List.filteri (fun i _ -> i < 3) disjoint_pairs
      in
      List.for_all
        (fun (q1, q2) ->
          let snap = Step.snapshot t in
          Step.do_deliver t q1;
          Step.do_deliver t q2;
          let v1 = closed_view t in
          Step.restore t snap;
          Step.do_deliver t q2;
          Step.do_deliver t q1;
          let v2 = closed_view t in
          Step.restore t snap;
          v1 = v2)
        pairs)

(* --- Controlled Netsim --------------------------------------------------- *)

let test_netsim_chooser () =
  let net =
    Netsim.create ~seed:7L ~num_sites:2
      ~latency:(Netsim.uniform_latency ~base:1.0 ~jitter:0.5)
      ()
  in
  let received = ref [] in
  Netsim.on_receive net 1 (fun _src msg -> received := !received @ [ msg ]);
  (* Always deliver the newest ready message: inverts the send order,
     which the latency heap (jitter < base) could never do. *)
  Netsim.set_chooser net (fun pend -> List.length pend - 1);
  Netsim.send net ~src:0 ~dst:1 "a";
  Netsim.send net ~src:0 ~dst:1 "b";
  Netsim.send net ~src:0 ~dst:1 "c";
  check Alcotest.int "sends parked for the chooser" 3
    (List.length (Netsim.pending_deliveries net));
  checkb "not quiescent while ready" (not (Netsim.quiescent net));
  Netsim.run net;
  check Alcotest.(list string) "chooser ordered the deliveries" [ "c"; "b"; "a" ]
    !received;
  checkb "quiescent after run" (Netsim.quiescent net)

(* --- Seed streams -------------------------------------------------------- *)

(* The conformance sweeps draw from label-split RNG streams.  The pins
   make stream drift a conscious decision: changing the derivation in
   helpers.ml (or Rng.split itself) silently changes every schedule the
   conformance suites replay, and this test is the tripwire. *)
let test_seed_streams () =
  let pins =
    [
      ( "conformance-clean",
        [ 0xbefd197b08908c75L; 0xb5c6d8fc26e0847eL; 0xae8d0a2ba18e0ca6L ] );
      ( "conformance-faulty",
        [ 0x748c9cb96cc9c5e6L; 0x8d851ed199b0011dL; 0x3d8104a067b17858L ] );
      ( "conformance-crash",
        [ 0xbd32458fb959ac0dL; 0x659c7f7b6631e22cL; 0x139f777d22461132L ] );
      ( "conformance-param-clean",
        [ 0x378e0a292b888f1L; 0xfe17e6c778333454L; 0x5d84bd2bcfa08e7bL ] );
      ( "conformance-param-faulty",
        [ 0x430f232df7e3953bL; 0xf72f148cc05bf5d5L; 0x992dec7cc70b57ceL ] );
      ( "conformance-param-crash",
        [ 0x875e00ca5dd09abdL; 0x719707ae50d7a17dL; 0xfcab91721d8e82bbL ] );
    ]
  in
  List.iter
    (fun (label, expected) ->
      check
        Alcotest.(list int64)
        (label ^ " is pinned") expected (suite_seeds label 3))
    pins;
  (* The whole point of splitting: the six streams never collide. *)
  let all =
    List.concat_map (fun (label, _) -> suite_seeds label 20) pins
  in
  check Alcotest.int "120 seeds, no collisions" 120
    (List.length (List.sort_uniq Int64.compare all))

(* --- Step_sched state ------------------------------------------------------ *)

(* Snapshot, run to the end (every symbol fires), restore: the
   fingerprint and the per-slot decided flags are the snapshot's
   again. *)
let test_snapshot_restore_decided () =
  let t = Step.build (load "mc_pair.wf") in
  (match Step.enabled_attempts t with
  | i :: _ -> Step.do_attempt t i
  | [] -> Alcotest.fail "mc_pair should start with an attempt");
  let snap = Step.snapshot t in
  let fp = Step.fingerprint t and decided = Step.decided t in
  Step.run_closing t;
  check Alcotest.int "the closed run decides every symbol"
    (List.length (Step.symbols t))
    (List.length (Step.decided t));
  checkb "the closed run moved the fingerprint" (Step.fingerprint t <> fp);
  Step.restore t snap;
  check Alcotest.int "fingerprint restored" fp (Step.fingerprint t);
  check
    Alcotest.(list string)
    "decided flags restored"
    (List.map Symbol.name decided)
    (List.map Symbol.name (Step.decided t))

(* A guard naming a symbol no actor hosts makes its actor pursue that
   symbol; the message cannot be routed and the run says which symbol
   it could not find. *)
let test_send_without_actor () =
  let ghost = Literal.pos (Symbol.make "ghost") in
  let t =
    Step.build
      ~guard_overrides:[ (Literal.event "c_t1", Guard.will ghost) ]
      (load "mc_pair.wf")
  in
  match Step.run_closing t with
  | () -> Alcotest.fail "a send to ghost should raise"
  | exception Invalid_argument msg ->
      let n = String.length "ghost" in
      let rec names i =
        i + n <= String.length msg && (String.sub msg i n = "ghost" || names (i + 1))
      in
      checkb ("the error names the symbol: " ^ msg) (names 0)

let suite =
  [
    Alcotest.test_case "mc_pair exhaustively verified" `Quick
      test_pair_exhaustive;
    Alcotest.test_case "mc_trigger exhaustively verified" `Quick
      test_trigger_exhaustive;
    Alcotest.test_case "crash-depth 1 exercises recovery" `Quick
      test_crash_depth;
    Alcotest.test_case "torn-write placements verified on mc_pair" `Quick
      test_torn_writes;
    Alcotest.test_case "naive and DPOR agree on verdicts" `Slow
      test_naive_vs_dpor;
    Alcotest.test_case "coupling classes split mc_indep" `Quick
      test_coupling_classes;
    Alcotest.test_case "tampered guard caught; counterexample round-trips"
      `Quick test_tamper_roundtrip;
    Alcotest.test_case "stored counterexample reproduces" `Quick
      test_stored_counterexample;
    Alcotest.test_case "stored schedule clean on honest guards" `Quick
      test_stored_clean_on_honest_guards;
    test_commutation;
    Alcotest.test_case "netsim chooser controls delivery order" `Quick
      test_netsim_chooser;
    Alcotest.test_case "conformance seed streams are pinned" `Quick
      test_seed_streams;
    Alcotest.test_case "snapshot/restore brings back fingerprint and decided"
      `Quick test_snapshot_restore_decided;
    Alcotest.test_case "a send to a symbol without an actor names it" `Quick
      test_send_without_actor;
  ]
