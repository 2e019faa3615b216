(* The travel workloads: Event_sched on five copies of the travel
   workflow of Example 4 (15 sites, 15 dependencies), one closed-loop
   client running one workflow instance after another.

   [travel] is fault-free with no store and no flow control: the
   read-only hot path.  [travel-faulty] runs the same spec under network,
   crash and storage faults with flow control on, so the channel, journal
   and flow layers do real work. *)

open Wf_core
open Wf_tasks
open Wf_scheduler

let copies = 5

let workflow =
  let tasks =
    List.concat
      (List.init copies (fun i ->
           let suffix = string_of_int i and site = 3 * i in
           [
             Workflow_def.task ~instance:("buy" ^ suffix) ~model:Task_model.transaction
               ~site ~script:(Agent.transactional ()) ();
             Workflow_def.task ~instance:("book" ^ suffix)
               ~model:Task_model.compensatable_transaction ~site:(site + 1)
               ~script:(Agent.straight_line [ "commit" ]) ();
             Workflow_def.task ~instance:("cancel" ^ suffix)
               ~model:Task_model.compensatable_transaction ~site:(site + 2)
               ~script:(Agent.straight_line [ "commit" ]) ();
           ]))
  in
  let deps =
    List.concat
      (List.init copies (fun i ->
           let ev base = Literal.event (base ^ string_of_int i) in
           [
             (Printf.sprintf "d1_%d" i, Catalog.requires (ev "s_buy") (ev "s_book"));
             ( Printf.sprintf "d2_%d" i,
               Expr.choice
                 (Expr.atom (Literal.complement (ev "c_buy")))
                 (Expr.seq (Expr.atom (ev "c_book")) (Expr.atom (ev "c_buy"))) );
             ( Printf.sprintf "d3_%d" i,
               Expr.choice_all
                 [
                   Expr.atom (Literal.complement (ev "c_book"));
                   Expr.atom (ev "c_buy");
                   Expr.atom (ev "s_cancel");
                 ] );
           ]))
  in
  Workflow_def.make ~name:"travel" ~tasks ~deps ()

let deps = Workflow_def.dependencies workflow

let faults =
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
  }

let store =
  { Wf_store.Media.Sim.no_faults with torn_write = 0.5; lost_tail = 0.5; max_faults = 4 }

let config ~faulty seed =
  if faulty then
    {
      Event_sched.default_config with
      seed;
      faults;
      store = Some store;
      flow = Some Flow.default_config;
    }
  else { Event_sched.default_config with seed }

let lookup_tables compiled =
  List.iter
    (fun (p : Compile.event_plan) -> ignore (Gtable.lookup p.guard))
    (Compile.plans compiled)

(* The workflow's set-up from empty memo tables: guard synthesis, the
   demand automata and the compiled guard tables.  Every run repeats
   these steps, mostly as memo hits. *)
let setup () =
  let compiled = Compile.compile deps in
  List.iter (fun d -> ignore (Automaton.build d)) deps;
  lookup_tables compiled

let ok (r : Event_sched.result) = r.satisfied && r.violations = []

(* --- untraced ---------------------------------------------------------- *)

let runs_per_round ~smoke = if smoke then 5 else 100

(* Each run gets its own seed, drawn from the workload seed. *)
let next_config ~faulty rng = config ~faulty (Wf_sim.Rng.next_int64 rng)

(* Every round repeats the same runs: [warm], then [timed], each run
   timed on its own. *)
let round ~warm ~timed =
  (* The first run after the memo tables were emptied refills them:
     untimed, but checked like every other run. *)
  let failed = ref (if ok (Event_sched.run ~config:warm workflow) then 0 else 1) in
  let runs = Array.length timed in
  let calls = Array.make runs 0.0 in
  let events = ref 0 in
  let pieces = Run.pieces 1 in
  Array.iteri
    (fun i config ->
      let t = Run.now_ns () in
      let r = Event_sched.run ~config workflow in
      calls.(i) <- Run.us_since t;
      Run.tick pieces;
      events := !events + List.length r.trace;
      if not (ok r) then incr failed)
    timed;
  let pieces, refs = Run.finish pieces in
  {
    Run.empty with
    checked = runs + 1;
    failed = !failed;
    instances = runs;
    events = !events;
    pieces;
    refs;
    calls;
  }

let check = "every run satisfied with no violations"

let run ~faulty ~smoke ~seconds ~seed =
  let rng = Wf_sim.Rng.create (Int64.of_int seed) in
  let warm = next_config ~faulty rng in
  let timed = Array.init (runs_per_round ~smoke) (fun _ -> next_config ~faulty rng) in
  Run.outcome ~traced:false ~check
    (Run.rounds ~smoke ~seconds ~setup (fun _ -> round ~warm ~timed))

(* --- traced ------------------------------------------------------------ *)

(* The traced run charges each wall-clock gap between consecutive trace
   records to the layer of the record that closes it; the prologue (run
   start to first record) and the epilogue (last record to return) cover
   the two ends.  These gaps approximate self time; they are not spans. *)
let gap_layers =
  [|
    "event_sched.prologue_ms";
    "event_sched.epilogue_ms";
    "actor.assim_ms";
    "netsim.deliver_ms";
    "netsim.send_ms";
    "channel.ms";
    "journal.ms";
    "flow.ms";
  |]

let layer_of (r : Wf_obs.Trace.record) =
  match r.kind with
  | Assim _ -> 2
  | Deliver _ | Drop _ | Crash -> 3
  | Send _ -> 4
  | Retransmit _ | Give_up _ | Ack _ | Epoch_bump | Dead_letter _ -> 5
  | Store_fault _ | Store_salvage _ | Restart -> 6
  | Shed _ | Credit _ -> 7

(* Compile, table and automaton costs, measured from the empty memo
   tables a round starts with. *)
let layer_setup () =
  let t = Run.now_ns () in
  let compiled = Compile.compile deps in
  let compile_ms = Run.us_since t /. 1e3 in
  let t = Run.now_ns () in
  lookup_tables compiled;
  let gtable_ms = Run.us_since t /. 1e3 in
  let stats = Gtable.stats () in
  List.iter (fun d -> ignore (Automaton.build d)) deps;
  let t = Run.now_ns () in
  List.iter (fun d -> ignore (Automaton.build d)) deps;
  let automaton_ms = Run.us_since t /. 1e3 in
  [
    ("compile.cold_ms", compile_ms);
    ("automaton.build_ms", automaton_ms);
    ("gtable.compile_ms", gtable_ms);
    ("gtable.states", float_of_int (List.assoc "compiled_states" stats));
    ("gtable.uncompilable", float_of_int (List.assoc "uncompilable" stats));
  ]

(* One round of paired runs: each seed runs untraced, then traced with
   the gap-attributing sink; both must realize the same trace. *)
let traced_round ~faulty ~rng ~runs =
  let setup = layer_setup () in
  let gaps = Array.make (Array.length gap_layers) 0 in
  let assims = ref 0 in
  let last = ref 0 and first = ref true in
  let sink =
    Wf_obs.Trace.streaming (fun r ->
        let t = Run.now_ns () in
        let l = if !first then 0 else layer_of r in
        first := false;
        gaps.(l) <- gaps.(l) + (t - !last);
        last := t;
        match r.kind with Assim _ -> incr assims | _ -> ())
  in
  let untraced_ms = Array.make runs 0.0 and traced_ms = Array.make runs 0.0 in
  let makespans = Array.make runs 0.0 in
  let replayed = ref true and failed = ref 0 in
  let events = ref 0 and alloc = ref 0.0 and majors = ref 0 in
  let stats = ref (Wf_obs.Metrics.create ()) in
  let warm = Event_sched.run ~config:(next_config ~faulty rng) workflow in
  if not (ok warm) then incr failed;
  for i = 0 to runs - 1 do
    let cfg = next_config ~faulty rng in
    let g0 = Gc.quick_stat () in
    let t = Run.now_ns () in
    let plain = Event_sched.run ~config:cfg workflow in
    untraced_ms.(i) <- Run.us_since t /. 1e3;
    let g1 = Gc.quick_stat () in
    alloc := !alloc +. Run.alloc_words g0 g1;
    majors := !majors + g1.major_collections - g0.major_collections;
    first := true;
    let t0 = Run.now_ns () in
    last := t0;
    let r = Event_sched.run ~config:{ cfg with tracer = Some sink } workflow in
    let t1 = Run.now_ns () in
    gaps.(1) <- gaps.(1) + (t1 - !last);
    traced_ms.(i) <- float_of_int (t1 - t0) /. 1e6;
    if Event_sched.trace_literals r <> Event_sched.trace_literals plain then
      replayed := false;
    if not (ok plain) then incr failed;
    if not (ok r) then incr failed;
    makespans.(i) <- r.makespan;
    events := !events + List.length r.trace;
    stats := Wf_obs.Metrics.merge !stats r.stats
  done;
  let checked = (2 * runs) + 1 in
  let fr = float_of_int runs and fe = float_of_int !events in
  let total c = float_of_int (Wf_obs.Metrics.count !stats c) in
  let gap_ms = Array.map (fun ns -> float_of_int ns /. 1e6 /. fr) gaps in
  let traced_wall = Array.fold_left ( +. ) 0.0 traced_ms /. fr in
  let attributed = Array.fold_left ( +. ) 0.0 gap_ms in
  let layers =
    setup
    @ Array.to_list (Array.mapi (fun i name -> (name, gap_ms.(i))) gap_layers)
    @ [
        ("event_sched.traced_run_ms", traced_wall);
        ("actor.assims", float_of_int !assims /. fr);
        ("actor.parked_evals_per_event", total "parked_evaluations" /. fe);
        ("actor.promises_per_event", total "promises_granted" /. fe);
        ("actor.reservations_per_event", total "reservations_granted" /. fe);
        ("netsim.deliveries", total "messages_delivered" /. fr);
        ("netsim.sends", total "messages_sent" /. fr);
        ("channel.retransmits", total "chan_retransmits" /. fr);
        ("channel.dups_suppressed", total "chan_duplicates_suppressed" /. fr);
        ("journal.appends_per_event", total "store_appends" /. fe);
        ("journal.syncs_per_event", total "store_syncs" /. fe);
        ("journal.bytes_per_event", total "store_appended_bytes" /. fe);
        ("journal.replayed_entries", total "replayed_entries" /. fr);
        ("journal.recoveries", total "actor_recoveries" /. fr);
        ("flow.credits_granted_per_event", total "flow_credits_granted" /. fe);
        ("flow.sends_blocked", total "flow_sends_blocked" /. fr);
        ("flow.mailbox_rejects", total "flow_mailbox_rejects" /. fr);
        ("flow.shed_per_job", total "flow_shed" /. fr);
        ("flow.probe_admits", total "flow_probe_admits" /. fr);
        ("call_us_p99", 1e3 *. Quantile.percentile untraced_ms 0.99);
        ( "trace.overhead_share",
          (Quantile.median traced_ms /. Quantile.median untraced_ms) -. 1.0 );
        ("gc.minor_words_per_input", !alloc /. fe);
        ("gc.major_collections", float_of_int !majors);
        ("makespan_p50", Quantile.median makespans);
        ("msgs_per_event", total "messages_sent" /. fe);
        ("goodput_share", float_of_int (checked - !failed) /. float_of_int checked);
      ]
  in
  {
    Run.empty with
    checked;
    failed = !failed;
    flags =
      [
        ("traced runs realize the untraced traces", !replayed);
        ( "layer breakdown sums to the traced wall time within 5%",
          Float.abs (attributed -. traced_wall) <= 0.05 *. traced_wall );
      ];
    layers;
  }

let trace ~faulty ~smoke ~seconds ~seed =
  let rng = Wf_sim.Rng.create (Int64.of_int seed) in
  let runs = runs_per_round ~smoke in
  Run.outcome ~traced:true ~check
    (Run.rounds ~smoke ~seconds (fun _ -> traced_round ~faulty ~rng ~runs))
