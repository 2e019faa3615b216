(* The model-checker suite (tier 1, quick slice): exhaustive
   verification pins for the small mc_* specs, the naive-vs-DPOR
   verdict-agreement check, counterexample round-trips (including the
   checked-in regression file), the delivery-commutation property the
   reduction relies on, the replay determinism the stateless search
   relies on, the crash step's Hello and handshake, the controlled
   Netsim mode, and the pinned conformance seed streams.  The
   heavyweight exhaustive runs live in test/check (the @check
   alias). *)

open Wf_core
open Helpers
module Mc = Wf_check.Mc
module Ground = Wf_scheduler.Ground
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
    (let syms =
       Array.map (fun (slot : Ground.slot) -> slot.sym)
         (Mc.For_testing.start (load "mc_pair.wf")).Ground.slots
     in
     List.for_all
       (fun tr ->
         Array.for_all
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
           (fun a b -> Mc.Tkey.For_testing.compare a b = 0)
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

(* The run's observable end: close it and read the trace, its
   literal set, per-dependency projections and violation counters. *)
let trace (rt : Ground.t) = List.rev_map (fun (o : Ground.occurrence) -> o.lit) rt.occurrences

let closed_view deps (rt : Ground.t) =
  Ground.close rt;
  let tr = trace rt in
  let projs =
    List.map
      (fun d ->
        let ds = Expr.symbols d in
        List.filter (fun l -> Symbol.Set.mem (Literal.symbol l) ds) tr)
      deps
  in
  let count = Wf_obs.Metrics.count rt.stats in
  ( List.sort Literal.compare tr,
    projs,
    count "forced_violations",
    count "uncontrollable_violations" )

(* A random walk of attempts and deliveries: the schedule taken. *)
let walk rt rng len =
  let rec go k acc =
    match Mc.For_testing.moves rt with
    | moves when k > 0 && moves <> [] ->
        let key, _ = List.nth moves (Random.State.int rng (List.length moves)) in
        Mc.For_testing.perform rt key;
        go (k - 1) (key :: acc)
    | _ -> List.rev acc
  in
  go len []

let replayed wf schedule =
  let rt = Mc.For_testing.start wf in
  List.iter (Mc.For_testing.perform rt) schedule;
  rt

let test_commutation =
  qprop ~count:30 "disjoint-footprint deliveries commute"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 14))
    (fun (seed, len) ->
      let wf, deps, class_of = Lazy.force commutation_env in
      let footprint (key, msg) =
        match key with
        | Mc.Tkey.Deliver (a, b) ->
            let syms =
              a :: b
              :: Option.fold ~none:[] ~some:Wf_scheduler.Messages.symbols msg
            in
            List.fold_left
              (fun acc s ->
                match (acc, class_of s) with
                | Some set, Some i -> Some (IntSet.add i set)
                | _ -> None)
              (Some IntSet.empty) syms
        | _ -> None
      in
      let rt = Mc.For_testing.start wf in
      let prefix = walk rt (Random.State.make [| seed |]) len in
      let moves = Mc.For_testing.moves rt in
      let disjoint_pairs =
        List.concat_map
          (fun ((k1, _) as m1) ->
            List.filter_map
              (fun ((k2, _) as m2) ->
                if Mc.Tkey.For_testing.compare k1 k2 >= 0 then None
                else
                  match (footprint m1, footprint m2) with
                  | Some f1, Some f2 when IntSet.disjoint f1 f2 -> Some (k1, k2)
                  | _ -> None)
              moves)
          moves
      in
      (* Cap the per-case work; any disjoint pair is as good as all. *)
      let pairs = List.filteri (fun i _ -> i < 3) disjoint_pairs in
      List.for_all
        (fun (k1, k2) ->
          closed_view deps (replayed wf (prefix @ [ k1; k2 ]))
          = closed_view deps (replayed wf (prefix @ [ k2; k1 ])))
        pairs)

(* Stateless search rests on determinism: replaying a schedule on a
   fresh build reaches the state the walk reached, step by step. *)
let test_replay_fingerprint =
  qprop ~count:30 "replaying a schedule from the root reaches the same fingerprint"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 20))
    (fun (seed, len) ->
      let wf = load "mc_trigger.wf" in
      let rt = Mc.For_testing.start wf in
      let rng = Random.State.make [| seed |] in
      (* The fingerprint before each step of a random walk, and after
         the last. *)
      let rec walk_fps k seen =
        let here = Mc.For_testing.fingerprint rt in
        match Mc.For_testing.moves rt with
        | moves when k > 0 && moves <> [] ->
            let key, _ =
              List.nth moves (Random.State.int rng (List.length moves))
            in
            Mc.For_testing.perform rt key;
            walk_fps (k - 1) ((key, here) :: seen)
        | _ -> (List.rev seen, here)
      in
      let steps, last = walk_fps len [] in
      let keys = List.map fst steps in
      let expected = List.map snd steps @ [ last ] in
      List.for_all2
        (fun n fp ->
          Mc.For_testing.fingerprint (replayed wf (List.filteri (fun j _ -> j < n) keys))
          = fp)
        (List.init (List.length expected) Fun.id)
        expected)

(* --- Controlled Netsim --------------------------------------------------- *)

let test_netsim_chooser () =
  let net =
    Netsim.create ~seed:7L ~num_sites:2
      ~latency:{ Netsim.base = 1.0; jitter = 0.5 }
      ()
  in
  let received = ref [] in
  Netsim.on_receive net 1 (fun _src msg -> received := !received @ [ msg ]);
  (* Always deliver the newest ready message: inverts the send order,
     which the latency heap (jitter < base) could never do. *)
  (* Every message its own lane, so any ready message can go next. *)
  Netsim.set_chooser net ~lane:(fun m -> Char.code m.[0]) (fun pend ->
      List.length pend - 1);
  Netsim.send net ~src:0 ~dst:1 "a";
  Netsim.send net ~src:0 ~dst:1 "b";
  Netsim.send net ~src:0 ~dst:1 "c";
  check Alcotest.int "sends parked for the chooser" 3
    (List.length (Netsim.pending_deliveries net));
  checkb "not quiescent while ready" (not (Netsim.For_testing.quiescent net));
  Netsim.run net;
  check Alcotest.(list string) "chooser ordered the deliveries" [ "c"; "b"; "a" ]
    !received;
  checkb "quiescent after run" (Netsim.For_testing.quiescent net)

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

(* --- One run of the explored system ----------------------------------------- *)

let decided (rt : Ground.t) =
  Array.fold_right
    (fun (slot : Ground.slot) acc -> if slot.decided then slot.sym :: acc else acc)
    rt.slots []

(* Take a schedule, run to the end (every symbol fires), and rebuild the
   schedule's state by replay from the root: the fingerprint and the
   per-slot decided flags are the schedule's again. *)
let test_snapshot_restore_decided () =
  let wf = load "mc_pair.wf" in
  let rt = Mc.For_testing.start wf in
  let schedule =
    match Mc.For_testing.moves rt with
    | (key, _) :: _ ->
        Mc.For_testing.perform rt key;
        [ key ]
    | [] -> Alcotest.fail "mc_pair should start with an attempt"
  in
  let fp = Mc.For_testing.fingerprint rt and before = decided rt in
  Ground.close rt;
  check Alcotest.int "the closed run decides every symbol"
    (Array.length rt.slots)
    (List.length (decided rt));
  checkb "the closed run moved the fingerprint" (Mc.For_testing.fingerprint rt <> fp);
  let rt = replayed wf schedule in
  check Alcotest.int "fingerprint restored" fp (Mc.For_testing.fingerprint rt);
  check
    Alcotest.(list string)
    "decided flags restored"
    (List.map Symbol.name before)
    (List.map Symbol.name (decided rt))

(* A crash step goes through the network's restart path: the channel's
   epoch moves and its Hello is delivered within the step, the hosted
   actors recover from their journals, and the handshake reaches the
   peer as a Recovered message, which the peer answers by re-announcing
   its decided fate. *)
let test_crash_handshake () =
  let wf = load "mc_pair.wf" in
  let rt = Mc.For_testing.start wf in
  (* t1 starts and commits (c_t1 reserves against c_t2 and occurs); the
     crash then hits site 1, where c_t2 is undecided and has not heard
     of c_t1's fate. *)
  List.iter (Mc.For_testing.perform rt)
    Mc.Tkey.
      [
        Attempt "t1";
        Attempt "t1";
        Deliver (Symbol.make "c_t1", Symbol.make "c_t2");
        Deliver (Symbol.make "c_t2", Symbol.make "c_t1");
        Crash 1;
      ];
  let count = Wf_obs.Metrics.count rt.stats in
  check Alcotest.int "site 1 is in epoch 1" 1 (Wf_scheduler.Channel.epoch rt.chan 1);
  check Alcotest.int "one restart" 1 (count "net_restarts");
  check Alcotest.int "every site-1 actor recovered" 3 (count "actor_recoveries");
  checkb "the Hello was delivered within the step"
    (List.for_all
       (function Netsim.Ready { control; _ } -> not control | Netsim.Due _ -> true)
       (Netsim.choices rt.net));
  checkb "the handshake sent Recovered messages" (count "msg_recovered" > 0);
  let recovered =
    List.filter_map
      (function
        | key, Some (Wf_scheduler.Messages.Recovered { epoch; _ }) ->
            Some (key, epoch)
        | _ -> None)
      (Mc.For_testing.moves rt)
  in
  checkb "they wait as deliveries, stamped with the new epoch"
    (recovered <> [] && List.for_all (fun (_, e) -> e = 1) recovered);
  List.iter (fun (key, _) -> Mc.For_testing.perform rt key) recovered;
  checkb "a decided peer re-announced" (count "recovery_reannounces" > 0);
  Ground.close rt;
  check Alcotest.int "the closed run decides every symbol"
    (Array.length rt.slots)
    (List.length (decided rt))

(* A guard naming a symbol no actor hosts makes its actor pursue that
   symbol; the message cannot be routed and the run says which symbol
   it could not find. *)
let test_send_without_actor () =
  let ghost = Literal.pos (Symbol.make "ghost") in
  let rt =
    Mc.For_testing.start
      ~guard_overrides:[ (Literal.event "c_t1", Guard.For_testing.will ghost) ]
      (load "mc_pair.wf")
  in
  match Ground.close rt with
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
    test_replay_fingerprint;
    Alcotest.test_case "netsim chooser controls delivery order" `Quick
      test_netsim_chooser;
    Alcotest.test_case "conformance seed streams are pinned" `Quick
      test_seed_streams;
    Alcotest.test_case "snapshot/restore brings back fingerprint and decided"
      `Quick test_snapshot_restore_decided;
    Alcotest.test_case "a crash step runs the Hello and the handshake" `Quick
      test_crash_handshake;
    Alcotest.test_case "a send to a symbol without an actor names it" `Quick
      test_send_without_actor;
  ]
