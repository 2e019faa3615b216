(* End-to-end scheduler tests: the distributed event-centric scheduler
   and the centralized baseline always realize traces satisfying every
   dependency (and generated per Definition 4), across seeds, failure
   injections, and latency regimes. *)

open Wf_core
open Wf_tasks
open Wf_scheduler
open Helpers

let travel_wf ?(buy_fails = false) () =
  let buy_script =
    if buy_fails then Agent.aborting () else Agent.transactional ()
  in
  Workflow_def.make ~name:"travel"
    ~tasks:
      [
        Workflow_def.task ~instance:"buy" ~model:Task_model.transaction ~site:0
          ~script:buy_script ();
        Workflow_def.task ~instance:"book"
          ~model:Task_model.compensatable_transaction ~site:1
          ~script:(Agent.straight_line [ "commit" ]) ();
        Workflow_def.task ~instance:"cancel"
          ~model:Task_model.compensatable_transaction ~site:2
          ~script:(Agent.straight_line [ "commit" ]) ();
      ]
    ~deps:(Catalog.travel_workflow ())
    ()

let pair_wf deps =
  Workflow_def.make ~name:"pair"
    ~tasks:
      [
        Workflow_def.task ~instance:"t1" ~model:Task_model.transaction ~site:0 ();
        Workflow_def.task ~instance:"t2" ~model:Task_model.transaction ~site:1 ();
      ]
    ~deps ()

let run_dist ?(seed = 42L) ?(check_generates = true) wf =
  Event_sched.run
    ~config:{ Event_sched.default_config with seed; check_generates }
    wf

let committed (r : Event_sched.result) task =
  List.exists
    (fun (o : Event_sched.occurrence) ->
      Literal.is_pos o.Event_sched.lit
      && Symbol.name (Literal.symbol o.Event_sched.lit) = "c_" ^ task)
    r.Event_sched.trace

let assert_good name (r : Event_sched.result) =
  checkb (name ^ ": satisfied") r.Event_sched.satisfied;
  (match r.Event_sched.generated with
  | Some gen -> checkb (name ^ ": generated") gen
  | None -> ());
  (* The realized trace is well-formed. *)
  checkb (name ^ ": well-formed trace")
    (Trace.well_formed (Event_sched.trace_literals r))

let test_travel_happy () =
  let r = run_dist (travel_wf ()) in
  assert_good "travel" r;
  checkb "book committed" (committed r "book");
  checkb "buy committed" (committed r "buy");
  (* d2: c_book precedes c_buy on the realized trace. *)
  let t = Event_sched.trace_literals r in
  (match (Trace.For_testing.index_of (lit "c_book") t, Trace.For_testing.index_of (lit "c_buy") t) with
  | Some i, Some j -> checkb "commit order respected" (i < j)
  | _ -> Alcotest.fail "expected both commits")

let test_travel_failure () =
  let r = run_dist (travel_wf ~buy_fails:true ()) in
  assert_good "travel-fail" r;
  checkb "buy aborted" (not (committed r "buy"));
  (* d3: compensation ran. *)
  checkb "cancel started"
    (Trace.mem (lit "s_cancel") (Event_sched.trace_literals r)
    || not (committed r "book"))

let test_seed_sweep () =
  List.iter
    (fun seed ->
      let r =
        run_dist ~seed:(Int64.of_int seed)
          (travel_wf ~buy_fails:(seed mod 2 = 0) ())
      in
      assert_good (Printf.sprintf "travel seed %d" seed) r)
    (List.init 12 (fun i -> i + 1))

let test_commit_order_pair () =
  let r = run_dist (pair_wf [ ("cd", Catalog.commit_order "t1" "t2") ]) in
  assert_good "commit order" r;
  checkb "both committed" (committed r "t1" && committed r "t2");
  let t = Event_sched.trace_literals r in
  (match (Trace.For_testing.index_of (lit "c_t1") t, Trace.For_testing.index_of (lit "c_t2") t) with
  | Some i, Some j -> checkb "order" (i < j)
  | _ -> Alcotest.fail "expected both")

let test_mutual_eventuality () =
  (* Example 11: guards ◇c_t2 on c_t1 and ◇c_t1 on c_t2 — resolved by
     the promise consensus; both must commit. *)
  let r =
    run_dist
      (pair_wf
         [
           ("d", Catalog.strong_commit "t1" "t2");
           ("dT", Catalog.strong_commit "t2" "t1");
         ])
  in
  assert_good "example 11" r;
  checkb "both commit via promises" (committed r "t1" && committed r "t2")

let test_order_and_requirement () =
  (* commit order + strong commit: reservation + conditional promise. *)
  let r =
    run_dist
      (pair_wf
         [
           ("cd", Catalog.commit_order "t1" "t2");
           ("sc", Catalog.strong_commit "t1" "t2");
         ])
  in
  assert_good "order+requirement" r;
  checkb "both commit" (committed r "t1" && committed r "t2")

let test_exclusion () =
  let r = run_dist (pair_wf [ ("ex", Catalog.exclusion "t1" "t2") ]) in
  assert_good "exclusion" r;
  checkb "at most one commits" (not (committed r "t1" && committed r "t2"));
  checkb "at least one commits (no over-blocking)"
    (committed r "t1" || committed r "t2")

let test_abort_dependency () =
  let wf =
    Workflow_def.make ~name:"ad"
      ~tasks:
        [
          Workflow_def.task ~instance:"t1" ~model:Task_model.transaction ~site:0
            ~script:(Agent.aborting ()) ();
          Workflow_def.task ~instance:"t2" ~model:Task_model.transaction ~site:1 ();
        ]
      ~deps:[ ("ad", Catalog.abort_dependency "t1" "t2") ]
      ()
  in
  let r = run_dist wf in
  assert_good "abort dependency" r;
  let t = Event_sched.trace_literals r in
  checkb "t1 aborted" (Trace.mem (lit "a_t1") t);
  checkb "t2 aborted too" (Trace.mem (lit "a_t2") t)

(* An uncontrollable event is announced, not requested: it fires
   whatever its guard says, and the scheduler counts a violation
   exactly when the guard is already false.  Forbidding t1's abort makes
   its guard 0, so the aborting agent violates it once; under the abort
   dependency the abort is allowed.  The compiled-table decision and the
   symbolic one (tables off) count alike. *)
let test_uncontrollable_verdict () =
  let violations dep =
    let wf =
      Workflow_def.make ~name:"unc"
        ~tasks:
          [
            Workflow_def.task ~instance:"t1" ~model:Task_model.transaction
              ~site:0 ~script:(Agent.aborting ()) ();
            Workflow_def.task ~instance:"t2" ~model:Task_model.transaction
              ~site:1 ();
          ]
        ~deps:[ ("d", dep) ] ()
    in
    let r = run_dist ~check_generates:false wf in
    checkb "t1 aborted" (Trace.mem (lit "a_t1") (Event_sched.trace_literals r));
    Wf_obs.Metrics.count r.Event_sched.stats "uncontrollable_violations"
  in
  List.iter
    (fun tables ->
      Gtable.set_enabled tables;
      Fun.protect
        ~finally:(fun () -> Gtable.set_enabled true)
        (fun () ->
          let leg = if tables then "tables" else "symbolic" in
          check Alcotest.int (leg ^ ": forbidden abort is a violation") 1
            (violations (Expr.atom (lit "~a_t1")));
          check Alcotest.int (leg ^ ": allowed abort is clean") 0
            (violations (Catalog.abort_dependency "t1" "t2"))))
    [ true; false ]

let test_serial_dependency () =
  let r = run_dist (pair_wf [ ("sd", Catalog.serial "t1" "t2") ]) in
  assert_good "serial" r;
  let t = Event_sched.trace_literals r in
  match (Trace.For_testing.index_of (lit "c_t1") t, Trace.For_testing.index_of (lit "s_t2") t) with
  | Some i, Some j -> checkb "t2 starts after t1 terminates" (i < j)
  | _ -> checkb "t2 never started or t1 never finished" true

let test_latency_regimes () =
  List.iter
    (fun (latency, jitter) ->
      let r =
        Event_sched.run
          ~config:
            {
              Event_sched.default_config with
              base_latency = latency;
              jitter;
              check_generates = true;
            }
          (travel_wf ())
      in
      assert_good (Printf.sprintf "latency %.1f" latency) r)
    [ (0.1, 0.0); (1.0, 0.5); (10.0, 5.0) ]

let test_trace_maximal () =
  let r = run_dist (travel_wf ()) in
  let t = Event_sched.trace_literals r in
  let deps = List.map snd (Catalog.travel_workflow ()) in
  let alpha =
    List.fold_left
      (fun a d -> Symbol.Set.union a (Expr.symbols d))
      Symbol.Set.empty deps
  in
  checkb "closing made the trace maximal" (Trace.maximal alpha t)

let two_phase_wf ~p1_fails =
  let rda_script fails =
    if fails then Agent.aborting ()
    else
      {
        Agent.steps = [ "start"; "precommit"; "commit" ];
        on_reject = (function "commit" | "precommit" -> Some "abort" | _ -> None);
        repeat = 1;
      }
  in
  Workflow_def.make ~name:"two-phase"
    ~tasks:
      [
        Workflow_def.task ~instance:"coord" ~model:Task_model.rda_transaction
          ~site:0 ~script:(rda_script false) ();
        Workflow_def.task ~instance:"p1" ~model:Task_model.rda_transaction
          ~site:1 ~script:(rda_script p1_fails) ();
        Workflow_def.task ~instance:"p2" ~model:Task_model.rda_transaction
          ~site:2 ~script:(rda_script false) ();
      ]
    ~deps:
      [
        ("prep1", Catalog.commit_after_prepared "coord" "p1");
        ("prep2", Catalog.commit_after_prepared "coord" "p2");
        ("dec1", Catalog.commit_on_commit "coord" "p1");
        ("dec2", Catalog.commit_on_commit "coord" "p2");
        ("ab1", Catalog.abort_dependency "coord" "p1");
        ("ab2", Catalog.abort_dependency "coord" "p2");
      ]
    ()

let test_two_phase_commit () =
  (* Happy path: prepares precede the coordinator's commit, which
     precedes both participants' commits. *)
  let r = run_dist ~check_generates:false (two_phase_wf ~p1_fails:false) in
  checkb "2pc satisfied" r.Event_sched.satisfied;
  let t = Event_sched.trace_literals r in
  checkb "all commit"
    (committed r "coord" && committed r "p1" && committed r "p2");
  let idx name = Trace.For_testing.index_of (lit name) t in
  (match (idx "p_p1", idx "p_p2", idx "c_coord", idx "c_p1", idx "c_p2") with
  | Some pp1, Some pp2, Some cc, Some cp1, Some cp2 ->
      checkb "prepare before coordinator commit" (pp1 < cc && pp2 < cc);
      checkb "coordinator commits before participants" (cc < cp1 && cc < cp2)
  | _ -> Alcotest.fail "expected all two-phase events")

let test_two_phase_abort () =
  (* A participant aborts before preparing: nobody commits. *)
  let r = run_dist ~check_generates:false (two_phase_wf ~p1_fails:true) in
  checkb "2pc abort satisfied" r.Event_sched.satisfied;
  checkb "no one commits"
    (not (committed r "coord" || committed r "p1" || committed r "p2"));
  let t = Event_sched.trace_literals r in
  checkb "everyone aborted"
    (Trace.mem (lit "a_coord") t && Trace.mem (lit "a_p1") t
    && Trace.mem (lit "a_p2") t)

(* Random catalog workflows: whatever the scheduler realizes must
   satisfy every dependency (the system's core guarantee). *)
let catalog_pool =
  [|
    (fun () -> Catalog.commit_order "t1" "t2");
    (fun () -> Catalog.commit_order "t2" "t1");
    (fun () -> Catalog.strong_commit "t1" "t2");
    (fun () -> Catalog.strong_commit "t2" "t1");
    (fun () -> Catalog.abort_dependency "t1" "t2");
    (fun () -> Catalog.weak_abort "t1" "t2");
    (fun () -> Catalog.exclusion "t1" "t2");
    (fun () -> Catalog.begin_order "t1" "t2");
    (fun () -> Catalog.begin_on_commit "t1" "t2");
    (fun () -> Catalog.serial "t1" "t2");
    (fun () -> Catalog.commit_on_commit "t1" "t2");
  |]

let test_random_catalog_workflows () =
  let rng = Wf_sim.Rng.create 2024L in
  for trial = 1 to 30 do
    let k = 1 + Wf_sim.Rng.int rng 3 in
    let deps =
      List.init k (fun i ->
          ( Printf.sprintf "d%d" i,
            catalog_pool.(Wf_sim.Rng.int rng (Array.length catalog_pool)) () ))
    in
    let wf =
      Workflow_def.make ~name:"random"
        ~tasks:
          [
            Workflow_def.task ~instance:"t1" ~model:Task_model.transaction
              ~site:0
              ~script:
                (if Wf_sim.Rng.int rng 4 = 0 then Agent.aborting ()
                 else Agent.transactional ())
              ();
            Workflow_def.task ~instance:"t2" ~model:Task_model.transaction
              ~site:1
              ~script:
                (if Wf_sim.Rng.int rng 4 = 0 then Agent.aborting ()
                 else Agent.transactional ())
              ();
          ]
        ~deps ()
    in
    let r =
      Event_sched.run
        ~config:
          {
            Event_sched.default_config with
            seed = Int64.of_int trial;
            check_generates = false;
          }
        wf
    in
    if not r.Event_sched.satisfied then begin
      List.iter
        (fun (n, d) -> Printf.printf "dep %s: %s
" n (Expr.to_string d))
        deps;
      Printf.printf "trace: %s
"
        (Trace.to_string (Event_sched.trace_literals r))
    end;
    checkb (Printf.sprintf "random workflow %d satisfied" trial)
      r.Event_sched.satisfied;
    let rc =
      Central_sched.run
        ~config:
          { Event_sched.default_config with seed = Int64.of_int trial }
        wf
    in
    checkb
      (Printf.sprintf "random workflow %d satisfied centrally" trial)
      rc.Event_sched.satisfied
  done

(* --- centralized baseline ------------------------------------------------- *)

let run_central ?(seed = 42L) wf =
  Central_sched.run ~config:{ Event_sched.default_config with seed } wf

let test_central_travel () =
  let r = run_central (travel_wf ()) in
  checkb "central satisfied" r.Event_sched.satisfied;
  checkb "central both commit" (committed r "book" && committed r "buy");
  let r = run_central (travel_wf ~buy_fails:true ()) in
  checkb "central failure satisfied" r.Event_sched.satisfied

let test_central_seed_sweep () =
  List.iter
    (fun seed ->
      let r =
        run_central ~seed:(Int64.of_int seed)
          (travel_wf ~buy_fails:(seed mod 2 = 1) ())
      in
      checkb (Printf.sprintf "central seed %d" seed) r.Event_sched.satisfied)
    (List.init 8 (fun i -> i + 1))

let test_central_pairs () =
  List.iter
    (fun (name, deps) ->
      let r = run_central (pair_wf deps) in
      checkb ("central " ^ name) r.Event_sched.satisfied)
    [
      ("commit order", [ ("cd", Catalog.commit_order "t1" "t2") ]);
      ("exclusion", [ ("ex", Catalog.exclusion "t1" "t2") ]);
      ( "order+req",
        [
          ("cd", Catalog.commit_order "t1" "t2");
          ("sc", Catalog.strong_commit "t1" "t2");
        ] );
    ]

(* Central runs on the distributed engine's config: Definition 4 when
   asked, and the occurrence hook at every occurrence, in order. *)
let on_event_log config =
  let seen = ref [] in
  ({ config with Event_sched.on_event = (fun o -> seen := o :: !seen) }, seen)

let test_central_config () =
  let config, seen =
    on_event_log { Event_sched.default_config with check_generates = true }
  in
  let r = Central_sched.run ~config (travel_wf ()) in
  check Alcotest.(option bool) "central Definition 4" (Some true)
    r.Event_sched.generated;
  checkb "on_event = trace" (List.rev !seen = r.Event_sched.trace)

(* A crash of the center replays its journal with side effects muted:
   the hook fires once per occurrence, never again during replay. *)
let test_central_replay_mutes_on_event () =
  let config, seen =
    on_event_log
      {
        Event_sched.default_config with
        seed = 4L;
        checkpoint_every = 1000;
        faults =
          {
            Wf_sim.Netsim.no_faults with
            crash_on_deliver = 0.2;
            restart_delay = 2.0;
          };
      }
  in
  let r = Central_sched.run ~config (travel_wf ()) in
  let count = Wf_obs.Metrics.count r.Event_sched.stats in
  checkb "center recovered" (count "center_recoveries" > 0);
  checkb "replayed entries" (count "center_replayed_entries" > 0);
  checkb "satisfied" r.Event_sched.satisfied;
  checkb "on_event once per occurrence" (List.rev !seen = r.Event_sched.trace)

let test_central_routes_through_center () =
  let r = run_central (travel_wf ()) in
  (* Every protocol message involves site 0 in the centralized design:
     remote messages exist and no actor-to-actor chatter happens. *)
  checkb "central uses messages"
    (Wf_obs.Metrics.count r.Event_sched.stats "messages_sent" > 0)

(* A run as the pins and the determinism check compare it: each
   occurrence with its seqno and exact time, and every counter. *)
let observe (r : Event_sched.result) =
  ( List.map
      (fun (o : Event_sched.occurrence) ->
        Printf.sprintf "%s#%d@%h" (Literal.to_string o.lit) o.seqno o.time)
      r.trace,
    Wf_obs.Metrics.For_testing.counters r.stats )

(* Drops, duplicates, reordering and crashes on the network, torn and
   lost-tail writes under the journals, and credit flow control — the
   fault load of wfbench's travel-faulty workload. *)
let faulty_config seed =
  {
    Event_sched.default_config with
    seed;
    faults =
      {
        Wf_sim.Netsim.no_faults with
        drop_rate = 0.05;
        duplicate_rate = 0.025;
        reorder_rate = 0.05;
        reorder_window = 2.0;
        crash_on_deliver = 0.02;
        crash_on_send = 0.01;
        restart_delay = 2.0;
        max_crashes = 6;
      };
    store =
      Some
        {
          Wf_store.Media.Sim.no_faults with
          torn_write = 0.5;
          lost_tail = 0.5;
          max_faults = 4;
        };
    flow = Some Flow.default_config;
  }

(* The same seed realizes the same run however the spec-invariant part
   was obtained: compiled from empty memo tables, reused from the
   previous run, or built by the naive memo-free kernels — fault-free,
   and again under network, crash and storage faults with flow control,
   where recovery replays actors and retransmits messages. *)
let test_determinism () =
  let same label (t1, c1) (t2, c2) =
    check Alcotest.(list string) (label ^ ": same trace") t1 t2;
    check
      Alcotest.(list (pair string int))
      (label ^ ": same counters") c1 c2
  in
  let legs label run =
    Intern.clear_memos ();
    let cold = run () in
    let warm = run () in
    let naive =
      Intern.set_enabled false;
      Fun.protect ~finally:(fun () -> Intern.set_enabled true) run
    in
    same (label ^ "cold vs warm") cold warm;
    same (label ^ "cold vs memo-free") cold naive
  in
  legs "" (fun () -> observe (run_dist ~seed:99L (travel_wf ())));
  legs "faulty+store: " (fun () ->
      observe (Event_sched.run ~config:(faulty_config 99L) (travel_wf ())))

(* Behaviour pins: the realized traces (literal, seqno, exact time) and
   every counter of 24 seeded runs of the five-copy travel workflow
   (fault-free, and under faults with store and flow control), digested.
   The faulty digests were re-pinned when the channel began fusing its
   control frames (grants on acks, the restart window on Hello, acks on
   same-instant answers), which moves every lossy run's draws; the
   fault-free ones were re-pinned when the channel stopped acking on
   exactly-once links, which removes every ack from those runs.  Any
   decision, retransmit or recovery that differs moves them, and every
   pinned run must satisfy its dependencies and generate a trace of the
   workflow. *)
let pin_workflow =
  let copies = 5 in
  Workflow_def.make ~name:"travel"
    ~tasks:
      (List.concat
         (List.init copies (fun i ->
              let suffix = string_of_int i and site = 3 * i in
              [
                Workflow_def.task ~instance:("buy" ^ suffix)
                  ~model:Task_model.transaction ~site
                  ~script:(Agent.transactional ()) ();
                Workflow_def.task ~instance:("book" ^ suffix)
                  ~model:Task_model.compensatable_transaction ~site:(site + 1)
                  ~script:(Agent.straight_line [ "commit" ]) ();
                Workflow_def.task ~instance:("cancel" ^ suffix)
                  ~model:Task_model.compensatable_transaction ~site:(site + 2)
                  ~script:(Agent.straight_line [ "commit" ]) ();
              ])))
    ~deps:
      (List.concat
         (List.init copies (fun i ->
              let ev base = Literal.event (base ^ string_of_int i) in
              [
                (Printf.sprintf "d1_%d" i, Catalog.requires (ev "s_buy") (ev "s_book"));
                ( Printf.sprintf "d2_%d" i,
                  Expr.choice
                    (Expr.atom (Literal.complement (ev "c_buy")))
                    (Expr.seq (Expr.atom (ev "c_book")) (Expr.atom (ev "c_buy")))
                );
                ( Printf.sprintf "d3_%d" i,
                  Expr.choice_all
                    [
                      Expr.atom (Literal.complement (ev "c_book"));
                      Expr.atom (ev "c_buy");
                      Expr.atom (ev "s_cancel");
                    ] );
              ])))
    ()

let pin_digest ?(run = Event_sched.run) config =
  let buf = Buffer.create 65536 in
  List.iter
    (fun seed ->
      let r =
        run
          ~config:{ (config (Int64.of_int seed)) with check_generates = true }
          pin_workflow
      in
      let label = Printf.sprintf "pin seed %d" seed in
      checkb (label ^ ": satisfied") r.Event_sched.satisfied;
      checkb (label ^ ": generated") (r.Event_sched.generated = Some true);
      let trace = List.map (fun (o : Event_sched.occurrence) -> o.lit) r.trace in
      List.iter
        (fun dep ->
          checkb
            (label ^ ": denotation of " ^ Expr.to_string dep)
            (satisfied_by_denotation dep trace))
        (Workflow_def.dependencies pin_workflow);
      let traces, counters = observe r in
      List.iter (fun o -> Buffer.add_string buf (o ^ ";")) traces;
      List.iter
        (fun (n, c) -> Buffer.add_string buf (Printf.sprintf "%s=%d," n c))
        counters;
      Buffer.add_char buf '\n')
    (List.init 24 (fun i -> i + 1));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_behaviour_pins () =
  check Alcotest.string "travel x 24 seeds" "6d364cb781e0318cf0487cf74e12b3d3"
    (pin_digest (fun seed -> { Event_sched.default_config with seed }));
  check Alcotest.string "travel-faulty x 24 seeds" "d39b7a4b49e4b737d5a18d29d6c1c76d"
    (pin_digest faulty_config)

(* The same pins for the centralized baseline; the fault-free one was
   re-pinned with the distributed engine's, the faulty one with the
   distributed engine's faulty pin. *)
let test_central_pins () =
  check Alcotest.string "central travel x 24 seeds"
    "007f7f44a29661d5776c10b02faba193"
    (pin_digest ~run:Central_sched.run (fun seed ->
         { Event_sched.default_config with seed }));
  check Alcotest.string "central travel-faulty x 24 seeds"
    "458aadbed48d741417de4ad50dcc7715"
    (pin_digest ~run:Central_sched.run faulty_config)

(* The memo claims under the pin workloads: every status-memo and
   pursuit-memo hit of the 24 pinned seeds, fault-free and faulty,
   agrees with the symbolic answer for the knowledge that asked, and
   every stepped view with a fresh one. *)
let test_pin_memo_audit () =
  List.iter
    (fun (label, config) ->
      Intern.clear_memos ();
      let (), a =
        Gtable.For_testing.audit_status_memo (fun () ->
            ignore (pin_digest config))
      in
      checkb (label ^ ": status-memo hits") (a.Gtable.For_testing.hits_checked > 0);
      check Alcotest.int (label ^ ": status-memo mismatches") 0
        a.Gtable.For_testing.mismatches;
      checkb (label ^ ": pursuit-memo hits") (a.Gtable.For_testing.pursuit_hits_checked > 0);
      check Alcotest.int (label ^ ": pursuit-memo mismatches") 0
        a.Gtable.For_testing.pursuit_mismatches;
      checkb (label ^ ": stepped views") (a.Gtable.For_testing.views_checked > 0);
      check Alcotest.int (label ^ ": stepped-view mismatches") 0
        a.Gtable.For_testing.view_mismatches)
    [
      ("travel", fun seed -> { Event_sched.default_config with seed });
      ("travel-faulty", faulty_config);
    ]

(* On a lossy network a retransmit timer whose message was acked
   meanwhile, or a stall check whose backlog drained, does nothing and
   says so ([Netsim.idle]): the makespan is the time of the run's last
   trace record, never an idle timer's.  Drops alone, and the pin's
   full fault load (crashes, store faults, flow control). *)
let test_makespan_ends_at_last_record () =
  List.iter
    (fun (label, config) ->
      List.iter
        (fun seed ->
          let sink, records = Wf_obs.Trace.collector () in
          let r =
            Event_sched.run
              ~config:{ (config (Int64.of_int seed)) with tracer = Some sink }
              (travel_wf ())
          in
          let last =
            List.fold_left
              (fun acc (rc : Wf_obs.Trace.record) -> Float.max acc rc.time)
              0.0 (records ())
          in
          check (Alcotest.float 0.0)
            (Printf.sprintf "%s seed %d: makespan = last trace record" label seed)
            last r.Event_sched.makespan)
        (List.init 20 (fun i -> i + 1)))
    [
      ( "drops",
        fun seed ->
          {
            Event_sched.default_config with
            seed;
            faults = { Wf_sim.Netsim.no_faults with drop_rate = 0.05 };
          } );
      ("travel-faulty", faulty_config);
    ]

let suite =
  [
    Alcotest.test_case "travel happy path" `Quick test_travel_happy;
    Alcotest.test_case "travel with failure" `Quick test_travel_failure;
    Alcotest.test_case "travel across seeds" `Slow test_seed_sweep;
    Alcotest.test_case "commit order" `Quick test_commit_order_pair;
    Alcotest.test_case "Example 11 promises" `Quick test_mutual_eventuality;
    Alcotest.test_case "order + requirement" `Quick test_order_and_requirement;
    Alcotest.test_case "exclusion" `Quick test_exclusion;
    Alcotest.test_case "abort dependency" `Quick test_abort_dependency;
    Alcotest.test_case "uncontrollable verdict" `Quick
      test_uncontrollable_verdict;
    Alcotest.test_case "serial dependency" `Quick test_serial_dependency;
    Alcotest.test_case "two-phase commit" `Quick test_two_phase_commit;
    Alcotest.test_case "two-phase abort" `Quick test_two_phase_abort;
    Alcotest.test_case "random catalog workflows" `Slow
      test_random_catalog_workflows;
    Alcotest.test_case "latency regimes" `Slow test_latency_regimes;
    Alcotest.test_case "closing yields maximal traces" `Quick test_trace_maximal;
    Alcotest.test_case "central: travel" `Quick test_central_travel;
    Alcotest.test_case "central: seeds" `Slow test_central_seed_sweep;
    Alcotest.test_case "central: dependency pairs" `Quick test_central_pairs;
    Alcotest.test_case "central: messages" `Quick test_central_routes_through_center;
    Alcotest.test_case "central: honours the config" `Quick test_central_config;
    Alcotest.test_case "central: replay mutes on_event" `Quick
      test_central_replay_mutes_on_event;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "behaviour pins (travel, travel-faulty)" `Quick
      test_behaviour_pins;
    Alcotest.test_case "central behaviour pins (travel, travel-faulty)" `Quick
      test_central_pins;
    Alcotest.test_case "memo audits over the pinned seeds" `Quick
      test_pin_memo_audit;
    Alcotest.test_case "lossy makespan ends at the last trace record" `Quick
      test_makespan_ends_at_last_record;
  ]
