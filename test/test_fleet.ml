(* Fleet engine conformance (Section 5 at scale): the arena-backed
   Fleet engine must be behaviorally indistinguishable from Param_sched
   on fleet-eligible specs, so the differential tests here drive both
   engines with identical input streams — deterministic sagas, random
   QCheck streams with off-spec noise, flow-controlled drains — and
   compare every observable: per-call outcomes, realized traces, parked
   backlogs, reconstructed knowledge.  Also hosts the arena rebuild
   check, fleet crash/recovery, and the actor waiter-FIFO regression. *)

open Wf_core
open Wf_scheduler
open Helpers

let psym b tok = Symbol.parametrized b [ tok ]
let v x = Ptemplate.Var x

(* Per binding x: the commit never happens, or its prepare precedes it
   (~c[x] + p[x]·c[x]) — the overload bench's workload shape. *)
let saga =
  Ptemplate.choice_all
    [
      Ptemplate.atom ~pol:Literal.Neg "c" [ v "x" ];
      Ptemplate.seq (Ptemplate.atom "p" [ v "x" ]) (Ptemplate.atom "c" [ v "x" ]);
    ]

(* Two chained dependencies over three bases: b needs a, c needs b. *)
let two_stage =
  [
    Ptemplate.choice_all
      [
        Ptemplate.atom ~pol:Literal.Neg "b" [ v "x" ];
        Ptemplate.seq (Ptemplate.atom "a" [ v "x" ]) (Ptemplate.atom "b" [ v "x" ]);
      ];
    Ptemplate.choice_all
      [
        Ptemplate.atom ~pol:Literal.Neg "c" [ v "x" ];
        Ptemplate.seq (Ptemplate.atom "b" [ v "x" ]) (Ptemplate.atom "c" [ v "x" ]);
      ];
  ]

(* --- eligibility --------------------------------------------------------- *)

let test_eligible () =
  checkb "saga eligible" (Fleet.eligible [ saga ]);
  checkb "two-stage eligible" (Fleet.eligible two_stage);
  checkb "mutex has two variables per dependency: ineligible"
    (not (Fleet.eligible [ Ptemplate.mutual_exclusion_template ~t1:"t1" ~t2:"t2" ]));
  checkb "constant parameter: ineligible"
    (not
       (Fleet.eligible
          [ Ptemplate.atom "a" [ Ptemplate.Const "1" ] ]));
  checkb "zero arity: ineligible"
    (not (Fleet.eligible [ Ptemplate.For_testing.of_expr (Expr.seq e f) ]));
  checkb "inconsistent base arity: ineligible"
    (not
       (Fleet.eligible
          [
            Ptemplate.atom "a" [ v "x" ];
            Ptemplate.seq (Ptemplate.atom "a" [ v "y"; v "y" ]) (Ptemplate.atom "b" [ v "y" ]);
          ]));
  checkb "create refuses ineligible specs"
    (try
       ignore (Fleet.create [ Ptemplate.mutual_exclusion_template ~t1:"t1" ~t2:"t2" ]);
       false
     with Invalid_argument _ -> true)

(* --- differential: fleet vs Param_sched ---------------------------------- *)

type ev = A of Symbol.t | O of Literal.t

let show_outcome = function
  | Param_engine.Accepted -> "accepted"
  | Param_engine.Parked -> "parked"
  | Param_engine.Rejected -> "rejected"
  | Param_engine.Already -> "already"
  | Param_engine.Busy { retry_after } -> Printf.sprintf "busy(%g)" retry_after

module type E = Param_engine.S

(* Feed the same stream to two engines; every divergence is a failure.
   Returns the engines for further probing. *)
let lockstep (type a b) (module L : E with type t = a)
    (module R : E with type t = b) ?flow deps evs : a * b =
  let l = L.create ?flow deps in
  let r = R.create ?flow deps in
  List.iteri
    (fun i ev ->
      match ev with
      | A sym ->
          let a = L.attempt l sym in
          let b = R.attempt r sym in
          if a <> b then
            Alcotest.failf "event %d, attempt %s: symbolic=%s fleet=%s" i
              (Symbol.name sym) (show_outcome a) (show_outcome b)
      | O lit ->
          L.occurred l lit;
          R.occurred r lit)
    evs;
  check trace_testable "traces agree" (L.trace l) (R.trace r);
  checkb "parked backlogs agree (content and order)"
    (List.equal Symbol.equal (L.parked l) (R.parked r));
  checkb "knowledge agrees" (Knowledge.equal (L.knowledge l) (R.knowledge r));
  check Alcotest.int "symbolic parked counter = |parked|"
    (List.length (L.parked l)) (L.parked_count l);
  check Alcotest.int "fleet parked counter = |parked|"
    (List.length (R.parked r)) (R.parked_count r);
  (l, r)

let run_both ?flow deps evs =
  lockstep (module Param_sched) (module Fleet) ?flow deps evs

let test_differential_deterministic () =
  (* Out-of-order commits park, prepares release them binding by
     binding, re-attempts report Already, never-prepared commits stay
     parked. *)
  let evs =
    [
      A (psym "c" "0");
      A (psym "c" "1");
      A (psym "c" "2");
      O (Literal.pos (psym "p" "1"));
      A (psym "c" "1");
      O (Literal.pos (psym "p" "0"));
      A (psym "c" "3");
      O (Literal.neg (psym "p" "2"));
      A (psym "c" "2");
      O (Literal.pos (psym "p" "3"));
    ]
  in
  let _se, fe = run_both [ saga ] evs in
  (* c(2)'s guard went False (~p(2) occurred) but parked tokens are only
     released by acceptance — like Param_sched, the fleet keeps it
     parked for the driver's end-of-run closing. *)
  check Alcotest.int "only the doomed c(2) left parked" 1
    (Fleet.parked_count fe);
  checkb "and it is c(2)"
    (List.equal Symbol.equal [ psym "c" "2" ] (Fleet.parked fe));
  check Alcotest.int "four bindings interned" 4 (Fleet.For_testing.bindings fe);
  checkb "decided covers retried tokens" (Fleet.decided fe (psym "c" "1"));
  checkb "fleet stepped compiled tables"
    (Wf_obs.Metrics.count (Fleet.stats fe) "fleet_table_steps" > 0)

(* Random streams: on-spec attempts and occurrences over a small token
   universe (duplicates and conflicting polarities certain), plus
   off-spec noise — unknown bases and arity mismatches — that the
   symbolic engine vacuously accepts. *)
let gen_ev : ev QCheck2.Gen.t =
  let open QCheck2.Gen in
  let tok = map string_of_int (int_bound 5) in
  let base = oneofl [ "a"; "b"; "c" ] in
  frequency
    [
      (5, map2 (fun b t -> A (psym b t)) base tok);
      (3, map2 (fun b t -> O (Literal.pos (psym b t))) base tok);
      (2, map2 (fun b t -> O (Literal.neg (psym b t))) base tok);
      (1, map (fun t -> A (Symbol.parametrized "z" [ t; t ])) tok);
      (1, map (fun t -> O (Literal.pos (Symbol.parametrized "a" [ t; "9" ]))) tok);
    ]

let gen_stream = QCheck2.Gen.(list_size (int_bound 60) gen_ev)

let prop_differential evs =
  ignore (run_both two_stage evs);
  true

let prop_differential_flow evs =
  (* Same streams under a tight admission gate: shed decisions, Busy
     retry horizons (jitter included: both flow controllers run the
     same seeded RNG), and post-drain states must all coincide. *)
  let flow =
    {
      Flow.default_config with
      Flow.shed_watermark = 3;
      probe_every = 5;
      retry_base = 0.5;
      retry_max = 4.0;
    }
  in
  ignore (run_both ~flow two_stage evs);
  true

let test_differential_flow_drains () =
  (* The flow drain of test_flow's "sheds, drains, exactly-once", run
     against both engines in lockstep. *)
  let flow =
    {
      Flow.default_config with
      Flow.shed_watermark = 2;
      probe_every = 4;
      retry_base = 1.0;
      retry_max = 4.0;
    }
  in
  let se = Param_sched.create ~flow [ saga ] in
  let fe = Fleet.create ~flow [ saga ] in
  let both_attempt sym =
    let a = Param_sched.attempt se sym in
    let b = Fleet.attempt fe sym in
    if a <> b then
      Alcotest.failf "diverged on %s: symbolic=%s fleet=%s" (Symbol.name sym)
        (show_outcome a) (show_outcome b);
    a
  in
  let jobs = 16 in
  let shed = ref [] in
  for i = 0 to jobs - 1 do
    match both_attempt (psym "c" (string_of_int i)) with
    | Param_sched.Parked -> ()
    | Param_sched.Busy _ -> shed := i :: !shed
    | _ -> Alcotest.fail "commit before prepare cannot be decided"
  done;
  checkb "gate engaged" (!shed <> []);
  for i = 0 to jobs - 1 do
    let p = Literal.pos (psym "p" (string_of_int i)) in
    Param_sched.occurred se p;
    Fleet.occurred fe p
  done;
  let rec retry n sym =
    if n > 100 then Alcotest.fail "attempt never admitted"
    else
      match both_attempt sym with
      | Param_sched.Busy _ -> retry (n + 1) sym
      | Param_sched.Accepted | Param_sched.Already -> ()
      | _ -> Alcotest.fail "drained commit must be accepted"
  in
  List.iter (fun i -> retry 0 (psym "c" (string_of_int i))) (List.rev !shed);
  check Alcotest.int "fleet backlog drained" 0 (Fleet.parked_count fe);
  check Alcotest.int "symbolic backlog drained" 0 (Param_sched.parked_count se);
  check trace_testable "exactly-once traces agree" (Param_sched.trace se)
    (Fleet.trace fe);
  check Alcotest.int "2 events per job" (2 * jobs)
    (Trace.length (Fleet.trace fe))

(* --- crash / recovery ---------------------------------------------------- *)

let split_at n l =
  let rec go k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (k - 1) (x :: acc) rest
  in
  go n [] l

let feed_fleet fe evs =
  List.iter
    (function A s -> ignore (Fleet.attempt fe s) | O l -> Fleet.occurred fe l)
    evs

let crash_stream =
  [
    A (psym "c" "0");
    A (psym "c" "1");
    O (Literal.pos (psym "a" "0"));
    A (psym "b" "0");
    A (psym "b" "5");
    O (Literal.pos (psym "b" "1"));
    A (psym "c" "1");
    O (Literal.neg (psym "a" "5"));
    A (psym "c" "7");
    O (Literal.pos (psym "b" "7"));
  ]

let test_fleet_recover_equal_and_continues () =
  (* In-memory journal: recovery restores the exact pre-crash state
     (arena, interner, logs, counters) and the recovered engine then
     tracks a never-crashed Param_sched to the end of the stream. *)
  let prefix, suffix = split_at 6 crash_stream in
  let se = Param_sched.create two_stage in
  let fe = Fleet.create ~checkpoint_every:4 two_stage in
  List.iter
    (function
      | A s -> ignore (Param_sched.attempt se s)
      | O l -> Param_sched.occurred se l)
    (prefix @ suffix);
  feed_fleet fe prefix;
  checkb "parked backlog nonempty at crash point" (Fleet.parked_count fe > 0);
  let fe' = Fleet.recover fe in
  checkb "recovered state equals pre-crash state" (Fleet.equal_state fe fe');
  checkb "parked backlog survived the crash"
    (List.equal Symbol.equal (Fleet.parked fe) (Fleet.parked fe'));
  feed_fleet fe' suffix;
  check trace_testable "recovered fleet tracks the symbolic engine"
    (Param_sched.trace se) (Fleet.trace fe');
  checkb "knowledge agrees after recovery"
    (Knowledge.equal (Param_sched.knowledge se) (Fleet.knowledge fe'))

let test_fleet_recover_with_store () =
  (* Checksummed media path: the arena checkpoint and input suffix ride
     the framed log; with no injected faults salvage keeps everything
     and recovery is exact. *)
  let fe =
    Fleet.create ~checkpoint_every:3 ~store:Wf_store.Media.Sim.no_faults
      ~store_seed:11L two_stage
  in
  feed_fleet fe crash_stream;
  let fe' = Fleet.recover fe in
  checkb "salvage report produced" (Fleet.last_salvage fe' <> None);
  checkb "fault-free media recovery is exact" (Fleet.equal_state fe fe');
  (* Recover twice: idempotent. *)
  let fe'' = Fleet.recover fe' in
  checkb "second recovery still exact" (Fleet.equal_state fe fe'')

(* Two looping parametrized tasks with begin-before-end chain
   dependencies, for the Param_driver runs. *)
let driver_wf =
  Wf_tasks.Workflow_def.make ~name:"fleet"
    ~tasks:
      [
        Wf_tasks.Workflow_def.task ~instance:"t1"
          ~model:Wf_tasks.Task_model.loop_task
          ~script:(Wf_tasks.Agent.looping 3) ~parametrize:true ();
        Wf_tasks.Workflow_def.task ~instance:"t2"
          ~model:Wf_tasks.Task_model.loop_task
          ~script:(Wf_tasks.Agent.looping 3) ~parametrize:true ();
      ]
    ~deps:[] ()

let driver_templates =
  let chain t =
    Ptemplate.choice_all
      [
        Ptemplate.atom ~pol:Literal.Neg ("e_" ^ t) [ v "x" ];
        Ptemplate.seq
          (Ptemplate.atom ("b_" ^ t) [ v "x" ])
          (Ptemplate.atom ("e_" ^ t) [ v "x" ]);
      ]
  in
  [ chain "t1"; chain "t2" ]

let test_fleet_driver () =
  (* End to end through Param_driver's engine dispatch: same seeds,
     same workflow — the fleet run (with injected crashes) must realize
     the same trace as the symbolic run. *)
  let wf = driver_wf and templates = driver_templates in
  List.iter
    (fun seed ->
      let sym_run = Param_driver.run ~seed ~templates wf in
      let fleet_run =
        Param_driver.run ~seed ~engine:(module Fleet) ~templates wf
      in
      let fleet_crashy =
        Param_driver.run ~seed ~engine:(module Fleet) ~crash_every:5 ~templates
          wf
      in
      checkb "all three runs finish"
        (sym_run.Param_driver.finished && fleet_run.Param_driver.finished
        && fleet_crashy.Param_driver.finished);
      check trace_testable "fleet trace = symbolic trace"
        sym_run.Param_driver.trace fleet_run.Param_driver.trace;
      check trace_testable "crash replay is invisible"
        sym_run.Param_driver.trace fleet_crashy.Param_driver.trace)
    [ 3L; 7L; 11L ]

(* --- crash points: checkpoint by sharing, restore by replay -------------- *)

type step = In of ev | Crash

(* Streams over one template's own bases (tokens 0..5, both polarities,
   duplicates certain) plus off-spec noise, with crashes anywhere. *)
let gen_crash_case =
  let open QCheck2.Gen in
  let tok = map string_of_int (int_bound 5) in
  oneofl [ ([ saga ], [ "c"; "p" ]); (two_stage, [ "a"; "b"; "c" ]) ]
  >>= fun (deps, bases) ->
  let base = oneofl bases in
  map
    (fun steps -> (deps, steps))
    (list_size (int_bound 150)
       (frequency
          [
            (5, map2 (fun b t -> In (A (psym b t))) base tok);
            (3, map2 (fun b t -> In (O (Literal.pos (psym b t)))) base tok);
            (1, map2 (fun b t -> In (O (Literal.neg (psym b t)))) base tok);
            (1, map (fun t -> In (A (Symbol.parametrized "z" [ t; t ]))) tok);
            (1, return Crash);
          ]))

let cadences = [ 1; 7; 64 ]
let stores = [ None; Some Wf_store.Media.Sim.no_faults ]

(* Every cadence, in memory and over fault-free media: each recover of
   the crashing engine [C] is exact, a recover that replays nothing
   leaves the engine's counters alone (over a medium it counts one
   salvage among the medium's [store_*] counters, and nothing else
   moves), and [C] stays in lockstep with an uncrashed [R]. *)
let crash_points (type r c) (module R : E with type t = r)
    (module C : E with type t = c) (deps, steps) =
  let is_store (name, _) = String.starts_with ~prefix:"store_" name in
  let stats_of e =
    let m = C.stats e in
    ( List.filter (fun c -> not (is_store c)) (Wf_obs.Metrics.For_testing.counters m),
      Wf_obs.Metrics.For_testing.gauges m,
      Wf_obs.Metrics.count m "store_salvages" )
  in
  List.iter
    (fun cadence ->
      List.iter
        (fun store ->
          let se = R.create deps in
          let fe = ref (C.create ~checkpoint_every:cadence ?store deps) in
          let inputs = ref 0 in
          List.iteri
            (fun i step ->
              match step with
              | In (A sym) ->
                  incr inputs;
                  let a = R.attempt se sym in
                  let b = C.attempt !fe sym in
                  if a <> b then
                    Alcotest.failf
                      "cadence %d, step %d, attempt %s: symbolic=%s fleet=%s"
                      cadence i (Symbol.name sym) (show_outcome a)
                      (show_outcome b)
              | In (O l) ->
                  incr inputs;
                  R.occurred se l;
                  C.occurred !fe l
              | Crash ->
                  let counters, gauges, salvages = stats_of !fe in
                  let fe' = C.recover !fe in
                  if not (C.equal_state !fe fe') then
                    Alcotest.failf "cadence %d, step %d: recovered state differs"
                      cadence i;
                  let salvaged = if store = None then 0 else 1 in
                  if
                    !inputs mod cadence = 0
                    && stats_of fe' <> (counters, gauges, salvages + salvaged)
                  then
                    Alcotest.failf "cadence %d, step %d: empty replay moved stats"
                      cadence i;
                  check trace_testable "trace in lockstep after recover"
                    (R.trace se) (C.trace fe');
                  fe := fe')
            steps;
          check trace_testable "final traces agree" (R.trace se) (C.trace !fe);
          checkb "final parked backlogs agree"
            (List.equal Symbol.equal (R.parked se) (C.parked !fe));
          checkb "final knowledge agrees"
            (Knowledge.equal (R.knowledge se) (C.knowledge !fe)))
        stores)
    cadences;
  true

let prop_crash_points case =
  crash_points (module Param_sched) (module Fleet) case

(* A checkpoint shares the engine's logs.  Inputs fed to the original
   engine after the checkpoint must not leak into what a later recover
   restores, and engines recovered from one checkpoint must not leak
   into each other: each must match an engine that never crashed. *)
let prop_checkpoint_aliasing (deps, steps) =
  let evs = List.filter_map (function In ev -> Some ev | Crash -> None) steps in
  let flip = function O l -> O (Literal.complement l) | a -> a in
  let fed evs =
    let e = Fleet.create deps in
    feed_fleet e evs;
    e
  in
  List.iter
    (fun cadence ->
      let prefix, rest = split_at (List.length evs / cadence * cadence) evs in
      let other = List.rev_map flip rest in
      let fe = Fleet.create ~checkpoint_every:cadence deps in
      feed_fleet fe prefix;
      let r0 = Fleet.recover fe in
      checkb "restore at the checkpoint" (Fleet.equal_state r0 (fed prefix));
      feed_fleet fe rest;
      let r1 = Fleet.recover fe in
      feed_fleet r0 other;
      let expect = fed (prefix @ rest) in
      checkb "original unaffected by its restores" (Fleet.equal_state fe expect);
      checkb "later recover = checkpoint + suffix" (Fleet.equal_state r1 expect);
      checkb "restored engine evolves on its own"
        (Fleet.equal_state r0 (fed (prefix @ other))))
    cadences;
  true

(* --- decision records ------------------------------------------------------ *)

(* The Assim records of a decision stream.  [Reduced] records differ by
   design: Param_sched re-decides every parked token after an accept,
   Fleet only the binding that moved.  Guard ids are interned per
   process, so they compare only within one. *)
let decisions records =
  List.filter_map
    (fun (r : Wf_obs.Trace.record) ->
      match r.Wf_obs.Trace.kind with
      | Wf_obs.Trace.Assim { outcome; guard }
        when outcome <> Wf_obs.Trace.Reduced ->
          Some (r.Wf_obs.Trace.time, r.Wf_obs.Trace.actor, outcome, guard)
      | _ -> None)
    records

let assims records =
  List.filter (fun r -> Wf_obs.Trace.kind_name r = "assim") records

let salvages records =
  List.length
    (List.filter (fun r -> Wf_obs.Trace.kind_name r = "store_salvage") records)

(* Run [steps] on a traced engine, recovering at every [Crash] (or
   skipping it when [crashes] is off). *)
let traced (type a) (module M : E with type t = a) ?store ?(crashes = true)
    deps steps =
  let sink, records = Wf_obs.Trace.collector () in
  let e = ref (M.create ~checkpoint_every:3 ?store deps) in
  M.set_tracer !e (Some sink);
  List.iter
    (function
      | In (A sym) -> ignore (M.attempt !e sym)
      | In (O l) -> M.occurred !e l
      | Crash -> if crashes then e := M.recover !e)
    steps;
  records ()

let crash_faults =
  {
    Wf_store.Media.Sim.torn_write = 0.5;
    lost_tail = 0.0;
    bit_flip = 0.5;
    ckpt_corrupt = 0.2;
    max_faults = 8;
  }

(* Both engines emit the same decisions; replay after a recover emits
   none (the crashing run traces exactly what the uncrashed one does);
   and every recover over a store emits exactly one salvage record. *)
let engines = [ ("param_sched", (module Param_sched : E)); ("fleet", (module Fleet)) ]

let prop_same_decisions (deps, steps) =
  let crashes = List.length (List.filter (( = ) Crash) steps) in
  if
    decisions (traced (module Param_sched) deps steps)
    <> decisions (traced (module Fleet) deps steps)
  then Alcotest.fail "decision records differ between the engines";
  List.iter
    (fun (name, (module M : E)) ->
      let uncrashed = assims (traced (module M) ~crashes:false deps steps) in
      if assims (traced (module M) deps steps) <> uncrashed then
        Alcotest.failf "%s: replay emitted decision records" name;
      let clean = traced (module M) ~store:Wf_store.Media.Sim.no_faults deps steps in
      if assims clean <> uncrashed then
        Alcotest.failf "%s: replay from the store emitted decision records" name;
      check Alcotest.int (name ^ ": one salvage per recover") crashes
        (salvages clean);
      check Alcotest.int (name ^ ": one salvage per recover, faulty store")
        crashes
        (salvages (traced (module M) ~store:crash_faults deps steps)))
    engines;
  true

let test_driver_decisions () =
  (* Param_driver runs, with and without injected crashes: the engines
     decide alike, and the crashes are invisible in the records. *)
  let run engine ?crash_every seed =
    let sink, records = Wf_obs.Trace.collector () in
    ignore
      (Param_driver.run ~seed ~engine ?crash_every ~tracer:sink
         ~templates:driver_templates driver_wf);
    records ()
  in
  List.iter
    (fun seed ->
      let sym = run (module Param_sched) seed
      and fleet = run (module Fleet) seed in
      checkb "records emitted" (decisions sym <> []);
      checkb "engines decide alike" (decisions sym = decisions fleet);
      List.iter
        (fun (name, engine) ->
          let crashy = run engine ~crash_every:5 seed in
          if assims crashy <> assims (run engine seed) then
            Alcotest.failf "%s: crash replay emitted decision records" name;
          check Alcotest.int (name ^ ": no store, no salvage") 0
            (salvages crashy))
        engines)
    [ 1L; 5L; 9L ]

(* A fixed stream over media that tears and flips bits at every crash:
   four chunks of twelve inputs, each followed by a recover.  Returns
   each recover's salvage report with the journal's length just before
   that crash, and the trace records of the whole run. *)
let salvage_stream (type a) (module M : E with type t = a) =
  let store =
    {
      Wf_store.Media.Sim.torn_write = 1.0;
      lost_tail = 0.0;
      bit_flip = 1.0;
      ckpt_corrupt = 0.0;
      max_faults = 8;
    }
  in
  let chunk k =
    List.concat_map
      (fun j ->
        let tok = string_of_int ((k * 10) + j) in
        [
          A (psym "c" tok);
          A (psym "b" tok);
          O (Literal.pos (psym "a" tok));
          A (psym "c" tok);
        ])
      [ 0; 1; 2 ]
  in
  let sink, records = Wf_obs.Trace.collector () in
  let e = ref (M.create ~checkpoint_every:4 ~store ~store_seed:21L two_stage) in
  M.set_tracer !e (Some sink);
  let journaled = ref 0 in
  let reports =
    List.map
      (fun k ->
        List.iter
          (function A s -> ignore (M.attempt !e s) | O l -> M.occurred !e l)
          (chunk k);
        let before = !journaled + List.length (chunk k) in
        e := M.recover !e;
        match M.last_salvage !e with
        | None -> Alcotest.fail "no salvage report"
        | Some r ->
            journaled := r.Wf_store.Log.sr_total_entries;
            (before, r))
      [ 0; 1; 2; 3 ]
  in
  (!e, reports, records ())

(* What each salvage keeps is a function of the bytes the journal wrote,
   so these values pin the entry codec and the snapshot codecs. *)
let test_salvage_pinned () =
  let salvaged engine =
    let _, reports, _ = salvage_stream engine in
    List.map
      (fun (_, r) ->
        ( r.Wf_store.Log.sr_frames,
          r.Wf_store.Log.sr_dropped_bytes,
          Wf_store.Log.For_testing.ckpt_source_name r.Wf_store.Log.sr_ckpt ))
      reports
  in
  let pins = Alcotest.(list (triple int int string)) in
  check pins "param_sched salvage"
    [
      (14, 144, "fallback"); (12, 883, "latest"); (10, 803, "latest");
      (20, 331, "latest");
    ]
    (salvaged (module Param_sched));
  check pins "fleet salvage"
    [
      (3, 269, "none"); (14, 99, "fallback"); (18, 297, "latest");
      (30, 106, "fallback");
    ]
    (salvaged (module Fleet))

(* No salvage runs silently: over the same stream, each engine's
   [store_*] counters agree with its [Store_salvage] records and with
   the salvage reports. *)
let test_salvage_counted () =
  List.iter
    (fun (name, (module M : E)) ->
      let e, reports, records = salvage_stream (module M) in
      let salvages =
        List.filter_map
          (fun (r : Wf_obs.Trace.record) ->
            match r.Wf_obs.Trace.kind with
            | Wf_obs.Trace.Store_salvage { kept; dropped; fallback } ->
                Some (kept, dropped, fallback)
            | _ -> None)
          records
      in
      let count c = Wf_obs.Metrics.count (M.stats e) c in
      let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
      check Alcotest.(list (triple int int bool))
        (name ^ ": one record per salvage report")
        (List.map
           (fun (_, r) ->
             ( r.Wf_store.Log.sr_frames,
               r.Wf_store.Log.sr_dropped_bytes,
               r.Wf_store.Log.sr_ckpt = Wf_store.Log.Fallback ))
           reports)
        salvages;
      check Alcotest.int (name ^ ": store_salvages") (List.length salvages)
        (count "store_salvages");
      check Alcotest.int (name ^ ": store_dropped_bytes")
        (sum (fun (_, d, _) -> d) salvages)
        (count "store_dropped_bytes");
      check Alcotest.int (name ^ ": store_ckpt_fallbacks")
        (List.length (List.filter (fun (_, _, f) -> f) salvages))
        (count "store_ckpt_fallbacks");
      check Alcotest.int (name ^ ": store_dropped_entries")
        (sum (fun (before, r) -> before - r.Wf_store.Log.sr_total_entries) reports)
        (count "store_dropped_entries");
      checkb (name ^ ": the stream salvages with losses")
        (count "store_dropped_bytes" > 0))
    engines

(* --- arena --------------------------------------------------------------- *)

let test_arena_rebuild () =
  let a = Arena.create ~width:3 in
  for r = 0 to 99 do
    Arena.ensure a r;
    for c = 0 to 2 do
      Arena.set a r c (((r * 31) + c) * if (r + c) mod 4 = 0 then -1 else 1)
    done
  done;
  check Alcotest.int "rows tracked" 100 (Arena.rows a);
  checkb "a segment covers the rows" (Arena.words a >= 300);
  (* Equality ignores unused segment rows but not content. *)
  let c = Arena.create ~width:3 in
  Arena.ensure c 99;
  checkb "zero arena differs from the filled one" (not (Arena.equal a c));
  (* A checkpoint carries no arena: with a checkpoint after every input
     the journal suffix is empty, so [recover] is pure restore, and the
     arena it rebuilds from the occurrence log and parked fates must
     equal the live one — fate words, seqnos and table states. *)
  let stream =
    crash_stream
    @ List.concat_map
        (fun i ->
          let tok = string_of_int (10 + i) in
          [ A (psym "b" tok); O (Literal.pos (psym "a" tok)); A (psym "c" tok) ])
        (List.init 40 Fun.id)
  in
  let fe = Fleet.create ~checkpoint_every:1 two_stage in
  feed_fleet fe stream;
  checkb "parked fates to overlay" (Fleet.parked_count fe > 0);
  let fe' = Fleet.recover fe in
  checkb "arena rebuilt from the log equals the live one"
    (Fleet.equal_state fe fe');
  checkb "parked order survives the rebuild"
    (List.equal Symbol.equal (Fleet.parked fe) (Fleet.parked fe'))

(* Rows, log entries and tokens on both sides of a segment boundary. *)
let test_segment_boundaries () =
  let seg = Arena.For_testing.seg_rows in
  check Alcotest.int "segment size" 4096 seg;
  let a = Arena.create ~width:2 in
  Arena.ensure a (seg - 1);
  let one_segment = Arena.words a in
  Arena.ensure a seg;
  checkb "row 4096 appends a segment" (Arena.words a > one_segment);
  Arena.ensure a (seg + 1);
  check Alcotest.int "row 4097 shares it" (Arena.words a)
    (let b = Arena.create ~width:2 in
     Arena.ensure b seg;
     Arena.words b);
  List.iter
    (fun r ->
      Arena.set a r 0 (r + 1);
      Arena.set a r 1 (-r))
    [ seg - 1; seg; seg + 1 ];
  List.iter
    (fun r ->
      check Alcotest.int "fate cell" (r + 1) (Arena.get a r 0);
      check Alcotest.int "state cell" (-r) (Arena.get a r 1))
    [ seg - 1; seg; seg + 1 ];
  (* A view keeps its length while the source grows past the boundary;
     a restored copy's pushes never reach the source or a sibling. *)
  let v = Arena.Vec.create 0 in
  for i = 0 to seg - 2 do
    Arena.Vec.push v i
  done;
  let view = Arena.Vec.share v in
  List.iter (Arena.Vec.push v) [ -1; -2; -3 ];
  check Alcotest.int "view length" (seg - 1) (Arena.Vec.length view);
  check Alcotest.int "source crossed the boundary" (seg + 2) (Arena.Vec.length v);
  let r1 = Arena.Vec.restore view and r2 = Arena.Vec.restore view in
  List.iter (Arena.Vec.push r1) [ 7; 8 ];
  Arena.Vec.push r2 9;
  check Alcotest.int "source entry 4095 kept" (-1) (Arena.Vec.get v (seg - 1));
  check Alcotest.int "source entry 4096 kept" (-2) (Arena.Vec.get v seg);
  check Alcotest.int "restored copy" 8 (Arena.Vec.get r1 seg);
  check Alcotest.int "sibling copy" 9 (Arena.Vec.get r2 (seg - 1));
  check Alcotest.int "shared prefix" (seg - 2) (Arena.Vec.get r2 (seg - 2));
  (* Engines: [n] parked bindings, then [len] occurrence-log entries
     (a positive prepare logs itself and its released commit, a
     negative one only itself), checkpointed on the last input.  The
     restore must equal the live engine.  The original then appends
     across the boundary and is recovered again (the same checkpoint
     plus a suffix); the first restored engine appends other inputs,
     and none of the three may leak into another. *)
  let prefix n len =
    let kpos = len / 2 and kneg = len mod 2 in
    List.init n (fun j -> A (psym "c" (string_of_int j)))
    @ List.init kpos (fun j -> O (Literal.pos (psym "p" (string_of_int j))))
    @ List.init kneg (fun j -> O (Literal.neg (psym "p" (string_of_int (kpos + j)))))
  in
  let extend tag =
    List.concat_map
      (fun j ->
        let tok = Printf.sprintf "%s%d" tag j in
        [ A (psym "c" tok); O (Literal.pos (psym "p" tok)) ])
      [ 0; 1; 2 ]
  in
  let fed evs =
    let e = Fleet.create [ saga ] in
    feed_fleet e evs;
    e
  in
  List.iter
    (fun n ->
      List.iter
        (fun len ->
          let pre = prefix n len in
          let fe = Fleet.create ~checkpoint_every:(List.length pre) [ saga ] in
          feed_fleet fe pre;
          check Alcotest.int "bindings at the boundary" n (Fleet.For_testing.bindings fe);
          check Alcotest.int "log at the boundary" len
            (Trace.length (Fleet.trace fe));
          let r0 = Fleet.recover fe in
          if not (Fleet.equal_state fe r0) then
            Alcotest.failf "n=%d len=%d: restore differs" n len;
          let rest = extend "r" and other = extend "o" in
          feed_fleet fe rest;
          let r1 = Fleet.recover fe in
          feed_fleet r0 other;
          if not (Fleet.equal_state fe (fed (pre @ rest))) then
            Alcotest.failf "n=%d len=%d: original touched by its restore" n len;
          if not (Fleet.equal_state r0 (fed (pre @ other))) then
            Alcotest.failf "n=%d len=%d: restored engine touched" n len;
          if not (Fleet.equal_state r1 (fed (pre @ rest))) then
            Alcotest.failf "n=%d len=%d: checkpoint + suffix differs" n len)
        [ seg - 1; seg; seg + 1 ])
    [ seg - 1; seg; seg + 1 ]

(* --- per-state Open verdicts --------------------------------------------- *)

(* x0·x1·…·x(k-1) over one binding. *)
let chain k =
  let atoms = List.init k (fun i -> Ptemplate.atom (Printf.sprintf "x%d" i) [ v "x" ]) in
  List.fold_left Ptemplate.seq (List.hd atoms) (List.tl atoms)

let mixed =
  [
    Ptemplate.choice_all
      [
        Ptemplate.seq (Ptemplate.atom "a" [ v "x" ])
          (Ptemplate.seq (Ptemplate.atom "b" [ v "x" ]) (Ptemplate.atom "c" [ v "x" ]));
        Ptemplate.seq (Ptemplate.atom "c" [ v "x" ]) (Ptemplate.atom "a" [ v "x" ]);
        Ptemplate.atom ~pol:Literal.Neg "b" [ v "x" ];
      ];
    Ptemplate.choice_all
      [
        Ptemplate.atom ~pol:Literal.Neg "d" [ v "x" ];
        Ptemplate.seq (Ptemplate.atom "b" [ v "x" ]) (Ptemplate.atom "d" [ v "x" ]);
      ];
  ]

(* If a and b both occur, a comes first; a needs c before it.  Its
   guards have Open states with different verdicts (Unknown until c,
   True after it while b is reserved), so a verdict cache keyed by
   anything coarser than (guard, state) shows up here. *)
let guarded_order =
  [
    Ptemplate.Conj
      ( Ptemplate.choice_all
          [
            Ptemplate.atom ~pol:Literal.Neg "a" [ v "x" ];
            Ptemplate.atom ~pol:Literal.Neg "b" [ v "x" ];
            Ptemplate.seq (Ptemplate.atom "a" [ v "x" ]) (Ptemplate.atom "b" [ v "x" ]);
          ],
        Ptemplate.choice_all
          [
            Ptemplate.atom ~pol:Literal.Neg "a" [ v "x" ];
            Ptemplate.seq (Ptemplate.atom "c" [ v "x" ]) (Ptemplate.atom "a" [ v "x" ]);
          ] );
  ]

(* Every sequence of distinct bases, each occurring with either
   polarity: every occurrence history a binding can have. *)
let rec histories = function
  | [] -> [ [] ]
  | bases ->
      []
      :: List.concat_map
           (fun b ->
             let rest = histories (List.filter (( <> ) b) bases) in
             List.concat_map
               (fun pos -> List.map (fun h -> (b, pos) :: h) rest)
               [ true; false ])
           bases

(* One binding per history in one engine, so a state's verdict is
   filled by the first binding to reach it and read by all the others;
   each read must equal that binding's own symbolic evaluation. *)
let test_open_verdicts_exact () =
  List.iter
    (fun (name, deps) ->
      let bases =
        List.sort_uniq String.compare
          (List.concat_map
             (fun d ->
               List.map (fun (a : Ptemplate.atom) -> a.Ptemplate.base) (Ptemplate.atoms d))
             deps)
      in
      let fe = Fleet.create deps in
      List.iteri
        (fun i h ->
          let tok = string_of_int i in
          List.iter
            (fun (b, pos) ->
              let s = psym b tok in
              Fleet.occurred fe (if pos then Literal.pos s else Literal.neg s))
            h)
        (histories bases);
      let checked, mismatches = Fleet.For_testing.audit_open_verdicts fe in
      if mismatches > 0 then
        Alcotest.failf "%s: %d of %d Open verdicts differ from symbolic" name
          mismatches checked;
      checkb (name ^ ": Open states reached") (checked > 0);
      let evals = Wf_obs.Metrics.count (Fleet.stats fe) "fleet_symbolic_evals" in
      if evals > Fleet.table_states fe then
        Alcotest.failf "%s: %d symbolic evaluations over %d table states" name
          evals (Fleet.table_states fe))
    [
      ("saga", [ saga ]);
      ("two_stage", two_stage);
      ("chain-3", [ chain 3 ]);
      ("chain-4", [ chain 4 ]);
      ("chain-5", [ chain 5 ]);
      ("mixed", mixed);
      ("guarded_order", guarded_order);
    ]

let test_symbolic_bounded () =
  (* Decisions on many bindings read the tabulated verdicts: the
     symbolic evaluations stay within the table states, not the
     bindings, and the run still matches Param_sched. *)
  let evs =
    List.concat_map
      (fun j ->
        let tok = string_of_int j in
        match j mod 3 with
        | 0 -> [ A (psym "c" tok); O (Literal.pos (psym "p" tok)) ]
        | 1 -> [ O (Literal.pos (psym "p" tok)); A (psym "c" tok) ]
        | _ -> [ A (psym "c" tok); O (Literal.neg (psym "p" tok)); A (psym "c" tok) ])
      (List.init 300 Fun.id)
  in
  let _, fe = run_both [ saga ] evs in
  let evals = Wf_obs.Metrics.count (Fleet.stats fe) "fleet_symbolic_evals" in
  checkb "some Open state evaluated" (evals > 0);
  checkb "evaluations bounded by table states" (evals <= Fleet.table_states fe);
  (* With tables off every decision is symbolic again. *)
  Gtable.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Gtable.set_enabled true)
    (fun () ->
      let _, fe = run_both [ saga ] evs in
      check Alcotest.int "no tables" 0 (Fleet.table_states fe);
      checkb "every decision symbolic"
        (Wf_obs.Metrics.count (Fleet.stats fe) "fleet_symbolic_evals" >= 300))

(* --- actor waiter queue (reservation FIFO) ------------------------------- *)

let test_reservation_waiters_fifo () =
  (* Regression for the quadratic waiters append: requesters queued
     behind a reservation holder must drain in arrival order with O(1)
     enqueue/dequeue.  Arrival order is a permutation of the name
     order, so any ordering bug (or a newest-first drain) shows up. *)
  let granted = ref [] in
  let stats = Wf_obs.Metrics.create () in
  let ctx =
    {
      Actor.send =
        (fun _ msg ->
          match msg with
          | Messages.Reserve_granted { to_; _ } -> granted := to_ :: !granted
          | _ -> ());
      fire = (fun _ -> ());
      reject = (fun _ -> ());
      trigger_task = (fun _ -> true);
      meters = Actor.meters stats;
      emit_assim = None;
    }
  in
  let esym = Literal.symbol (lit "e") in
  let actor =
    Actor.create ~sym:esym ~site:0
      ~route:(fun _ -> -1)
      ~guard_pos:(Gtable.cell (Synth.guard e (lit "e")))
      ~guard_neg:(Gtable.cell (Synth.guard e (lit "~e")))
      ~attr_pos:Wf_tasks.Attribute.default
      ~attr_neg:Wf_tasks.Attribute.uncontrollable ()
  in
  let n = 64 in
  let arrival =
    List.init n (fun k -> lit (Printf.sprintf "w%02d" (k * 37 mod n)))
  in
  List.iter
    (fun r ->
      Actor.apply ctx actor
        (Actor.I_message (Messages.Reserve { sym = esym; requester = r })))
    arrival;
  (* Nothing is parked, so the first requester was granted immediately;
     the rest queued behind it in arrival order. *)
  check Alcotest.int "one holder, rest queued" (n - 1)
    (List.length (Actor.For_testing.waiters actor));
  checkb "queue preserves arrival order"
    (List.equal Literal.equal (List.tl arrival) (Actor.For_testing.waiters actor));
  for _ = 1 to n do
    Actor.apply ctx actor
      (Actor.I_message (Messages.Release { sym = esym; holder = lit "e" }))
  done;
  checkb "grants follow arrival order exactly, nobody starved"
    (List.equal Literal.equal arrival (List.rev !granted));
  check Alcotest.int "queue drained" 0 (List.length (Actor.For_testing.waiters actor))

let suite =
  [
    Alcotest.test_case "fleet eligibility" `Quick test_eligible;
    Alcotest.test_case "differential: deterministic saga" `Quick
      test_differential_deterministic;
    qprop ~count:150 "differential: random streams + off-spec noise"
      gen_stream prop_differential;
    qprop ~count:100 "differential: random streams under admission gate"
      gen_stream prop_differential_flow;
    Alcotest.test_case "differential: flow sheds, drains, exactly-once" `Quick
      test_differential_flow_drains;
    Alcotest.test_case "recover restores arena state and continues" `Quick
      test_fleet_recover_equal_and_continues;
    Alcotest.test_case "recover over checksummed media" `Quick
      test_fleet_recover_with_store;
    Alcotest.test_case "driver dispatch: fleet = symbolic, crashes invisible"
      `Quick test_fleet_driver;
    qprop ~count:100 "crash points: recover exact, lockstep"
      gen_crash_case prop_crash_points;
    qprop ~count:100 "checkpoint aliasing: restores isolated"
      gen_crash_case prop_checkpoint_aliasing;
    qprop ~count:100 "decision records: engines agree, replay silent"
      gen_crash_case prop_same_decisions;
    Alcotest.test_case "decision records through the driver" `Quick
      test_driver_decisions;
    Alcotest.test_case "salvage of a faulty store pinned" `Quick
      test_salvage_pinned;
    Alcotest.test_case "arena rebuild from the log" `Quick test_arena_rebuild;
    Alcotest.test_case "segmented storage across segment boundaries" `Quick
      test_segment_boundaries;
    Alcotest.test_case "per-state Open verdicts exact on every history" `Quick
      test_open_verdicts_exact;
    Alcotest.test_case "symbolic evaluations bounded by table states" `Quick
      test_symbolic_bounded;
    Alcotest.test_case "reservation waiters drain FIFO" `Quick
      test_reservation_waiters_fifo;
    Alcotest.test_case "param engines count their salvages" `Quick
      test_salvage_counted;
  ]
