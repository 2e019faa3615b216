(* Differential conformance: for every spec in specs/*.wf and a sweep of
   seeds, the distributed event-centric scheduler and the centralized
   baseline must both terminate with every dependency satisfied — on the
   perfect network and under heavy fault injection (drops, duplication,
   reordering, a timed partition).  Satisfaction is checked against the
   model-theoretic semantics directly ([Semantics.denotation]), not the
   schedulers' own verdict alone. *)

open Wf_core
open Wf_scheduler
open Helpers

(* The dune test stanza copies specs/*.wf next to the test tree; resolve
   them relative to the executable so both `dune runtest` and
   `dune exec test/test_main.exe` find them. *)
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

let spec_files () =
  Sys.readdir spec_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".wf")
  |> List.sort compare
  |> List.map (Filename.concat spec_dir)

(* The fault load of the acceptance criteria: 20% loss, 10% duplication,
   bounded reordering, and one partition window isolating site 0 early
   in the run. *)
let fault_load =
  {
    Wf_sim.Netsim.no_faults with
    drop_rate = 0.2;
    duplicate_rate = 0.1;
    reorder_rate = 0.1;
    reorder_window = 4.0;
    partitions =
      [
        {
          Wf_sim.Netsim.cut_from = 5.0;
          cut_until = 20.0;
          group_a = [ 0 ];
          group_b = [ 1; 2 ];
        };
      ];
  }

let run_one ~sched ~faults ~seed wf =
  match sched with
  | `Distributed ->
      Event_sched.run
        ~config:{ Event_sched.default_config with seed; faults }
        wf
  | `Central ->
      Central_sched.run
        ~config:{ Event_sched.default_config with seed; faults }
        wf

let sched_name = function `Distributed -> "dist" | `Central -> "central"

(* A parametrized spec (templates present) is scheduled by the
   parametrized engine, not the ground schedulers: sweep it through
   [Param_driver] and require completion. *)
let param_sweep ~label path def templates =
  List.iter
    (fun seed ->
      let r =
        Param_driver.run ~seed ~templates:(List.map snd templates) def
      in
      let name =
        Printf.sprintf "%s %s param seed %Ld" label (Filename.basename path)
          seed
      in
      checkb (name ^ ": finished") r.Param_driver.finished;
      checkb (name ^ ": nothing parked") (r.Param_driver.parked_final = []))
    (suite_seeds ("conformance-param-" ^ label) 20)

let conformance_sweep ~faults ~label () =
  List.iter
    (fun path ->
      let { Wf_lang.Elaborate.def; templates } =
        Wf_lang.Elaborate.load_file path
      in
      if templates <> [] then param_sweep ~label path def templates
      else
        let deps = Wf_tasks.Workflow_def.dependencies def in
        List.iter
          (fun sched ->
            List.iter
              (fun seed ->
                let r = run_one ~sched ~faults ~seed def in
                let name =
                  Printf.sprintf "%s %s %s seed %Ld" label
                    (Filename.basename path) (sched_name sched) seed
                in
                checkb (name ^ ": satisfied") r.Event_sched.satisfied;
                let trace = Event_sched.trace_literals r in
                checkb (name ^ ": well-formed trace") (Trace.well_formed trace);
                List.iter
                  (fun dep ->
                    checkb
                      (name ^ ": denotation of " ^ Expr.to_string dep)
                      (satisfied_by_denotation dep trace))
                  deps)
              (suite_seeds ("conformance-" ^ label) 20))
          [ `Distributed; `Central ])
    (spec_files ())

(* Every status-memo hit during the sweep must agree with
   [Knowledge.status] of the knowledge that asked, every pursuit-memo
   hit with the pursuit recomputed from it, and every stepped view with
   a fresh view of the same knowledge. *)
let audited label f =
  let r, a = Gtable.For_testing.audit_status_memo f in
  checkb (label ^ ": the sweep hit the status memo") (a.Gtable.For_testing.hits_checked > 0);
  check Alcotest.int (label ^ ": status-memo audit mismatches") 0
    a.Gtable.For_testing.mismatches;
  checkb (label ^ ": the sweep hit the pursuit memo")
    (a.Gtable.For_testing.pursuit_hits_checked > 0);
  check Alcotest.int (label ^ ": pursuit-memo audit mismatches") 0
    a.Gtable.For_testing.pursuit_mismatches;
  checkb (label ^ ": the sweep stepped parked views") (a.Gtable.For_testing.views_checked > 0);
  check Alcotest.int (label ^ ": stepped-view audit mismatches") 0
    a.Gtable.For_testing.view_mismatches;
  r

let test_conformance_reliable () =
  audited "clean" (fun () ->
      conformance_sweep ~faults:Wf_sim.Netsim.no_faults ~label:"clean" ())

let test_conformance_faulty () =
  (* Aggregate the counters across the sweep: the fault layer and the
     reliable channel must both demonstrably engage. *)
  let agg = ref (Wf_obs.Metrics.create ()) in
  audited "faulty" @@ fun () ->
  List.iter
    (fun path ->
      let { Wf_lang.Elaborate.def; templates } =
        Wf_lang.Elaborate.load_file path
      in
      if templates <> [] then param_sweep ~label:"faulty" path def templates
      else
        let deps = Wf_tasks.Workflow_def.dependencies def in
        List.iter
          (fun sched ->
            List.iter
              (fun seed ->
                let r = run_one ~sched ~faults:fault_load ~seed def in
                let name =
                  Printf.sprintf "faulty %s %s seed %Ld"
                    (Filename.basename path) (sched_name sched) seed
                in
                checkb (name ^ ": satisfied") r.Event_sched.satisfied;
                let trace = Event_sched.trace_literals r in
                List.iter
                  (fun dep ->
                    checkb
                      (name ^ ": denotation of " ^ Expr.to_string dep)
                      (satisfied_by_denotation dep trace))
                  deps;
                agg := Wf_obs.Metrics.merge !agg r.Event_sched.stats)
              (suite_seeds "conformance-faulty" 20))
          [ `Distributed; `Central ])
    (spec_files ());
  let count name = Wf_obs.Metrics.count !agg name in
  checkb "network dropped messages" (count "net_drops" > 0);
  checkb "network duplicated messages" (count "net_duplicates" > 0);
  checkb "partition cut messages" (count "net_partition_drops" > 0);
  checkb "channel retransmitted" (count "chan_retransmits" > 0);
  checkb "channel suppressed duplicates"
    (count "chan_duplicates_suppressed" > 0);
  checkb "no message permanently lost" (count "chan_gave_up" = 0)

(* The same seed and fault configuration must replay to the same trace:
   faulty runs are reproducible from (seed, fault config). *)
let test_faulty_determinism () =
  let path = Filename.concat spec_dir "travel.wf" in
  let { Wf_lang.Elaborate.def; _ } = Wf_lang.Elaborate.load_file path in
  let go () =
    Event_sched.run
      ~config:
        { Event_sched.default_config with seed = 77L; faults = fault_load }
      def
  in
  let r1 = go () and r2 = go () in
  check
    Alcotest.(list string)
    "same (seed, faults), same trace"
    (List.map Literal.to_string (Event_sched.trace_literals r1))
    (List.map Literal.to_string (Event_sched.trace_literals r2))

(* [Correctness.violations] (one positions index per trace) against the
   split-enumeration reference, on the engines' realized traces of every
   ground spec, their reversals and every prefix: the reversed and
   truncated traces violate ordering and existence dependencies, so the
   comparison is not only over empty verdicts. *)
let test_violations_match_reference () =
  let violated = ref 0 in
  List.iter
    (fun path ->
      let { Wf_lang.Elaborate.def; templates } =
        Wf_lang.Elaborate.load_file path
      in
      if templates = [] then
        let deps = Wf_tasks.Workflow_def.dependencies def in
        List.iter
          (fun (sched, seed) ->
            let trace =
              Event_sched.trace_literals
                (run_one ~sched ~faults:Wf_sim.Netsim.no_faults ~seed def)
            in
            let cases =
              List.rev trace
              :: List.init (List.length trace + 1) (fun i -> Trace.prefix i trace)
            in
            List.iter
              (fun u ->
                let got = Correctness.violations deps u in
                violated := !violated + List.length got;
                check
                  (Alcotest.list expr_testable)
                  (Printf.sprintf "%s %s seed %Ld: violations of %s"
                     (Filename.basename path) (sched_name sched) seed
                     (Trace.to_string u))
                  (Reference.violations deps u) got)
              cases)
          [ (`Distributed, 1L); (`Distributed, 5L); (`Central, 9L) ])
    (spec_files ());
  checkb "some case violates a dependency" (!violated > 0)

let suite =
  [
    Alcotest.test_case "specs x schedulers x 20 seeds (reliable net)" `Slow
      test_conformance_reliable;
    Alcotest.test_case "specs x schedulers x 20 seeds (faulty net)" `Slow
      test_conformance_faulty;
    Alcotest.test_case "faulty runs replay deterministically" `Quick
      test_faulty_determinism;
    Alcotest.test_case "violations match the split-enumeration reference"
      `Quick test_violations_match_reference;
  ]
