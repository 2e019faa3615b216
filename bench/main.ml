(* Benchmark harness: regenerates every figure, example, and claim of
   the paper's evaluation (see DESIGN.md's experiment index), printing
   the artifact next to a min-of-repeats timing of the computation
   behind it.

   Run with:  dune exec bench/main.exe [-- FLAGS]

   Flags (at most one suite flag; without one, the paper sections run
   and then the CORE suite):
     --scaling   run only the CORE before/after scaling suite
     --crash     run only the crash-recovery overhead suite
     --check     run only the model-checker exploration suite
     --store     run only the durable-log overhead and salvage suite
     --overload  run only the open-loop overload/flow-control suite
     --scale     run only the fleet-scale suite (10^5..10^6 bindings)
     --smoke     small configs and quotas (CI smoke job)
     --json [F]  write the suite's artifact to F (default: the suite's
                 BENCH_*.json in the current directory)

   OVERLOAD and SCALE run wfbench's saga workload ([Wfbench_lib.Saga]):
   its template, symbols, audit and service model.  Every suite checks
   named gates; the process exits 1 when one fails and 2 on a usage
   error. *)

open Wf_core
open Wf_tasks
open Wf_scheduler
module Json = Wf_obs.Json
module Run = Wfbench_lib.Run
module Saga = Wfbench_lib.Saga

let int n = Json.Num (float_of_int n)

(* --- timing helper -------------------------------------------------------- *)

(* Wall time of [k] back-to-back calls, in ns, on wfbench's monotonic
   clock. *)
let time_calls k fn =
  let t0 = Run.now_ns () in
  for _ = 1 to k do
    ignore (Sys.opaque_identity (fn ()))
  done;
  float_of_int (Run.now_ns () - t0)

(* Below this, clock resolution and the timing loop are a visible share
   of a sample, so shorter kernels are batched up to it. *)
let batch_floor_ns = 1e5

(* ns per call of [fn]: the minimum over repeated samples, the sample
   least disturbed by the machine.  A kernel shorter than
   [batch_floor_ns] runs k times per sample (k doubling from 1 until a
   sample reaches the floor); a longer one keeps one call per sample.
   The repeat count fits [budget] ns, between 3 and 25 samples. *)
let min_ns ?(budget = 1e8) fn =
  ignore (Sys.opaque_identity (fn ()));
  (* warm-up *)
  let rec calibrate k =
    let t = time_calls k fn in
    if t >= batch_floor_ns || k >= 1 lsl 20 then (k, t) else calibrate (2 * k)
  in
  let k, first = calibrate 1 in
  let reps = max 3 (min 25 (int_of_float (budget /. Float.max first 1.0))) in
  let best = ref first in
  for _ = 2 to reps do
    best := Float.min !best (time_calls k fn)
  done;
  !best /. float_of_int k

let pp_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else Printf.sprintf "%.2f s" (ns /. 1e9)

let section id title =
  Printf.printf "\n=== [%s] %s\n%!" id title

let lit name =
  if String.length name > 0 && name.[0] = '~' then
    Literal.complement_of (String.sub name 1 (String.length name - 1))
  else Literal.event name

(* --- E1: Example 1, the trace universe ------------------------------------ *)

let bench_universe () =
  section "E1" "Trace universe (Example 1)";
  let alpha = Universe.of_names [ "e"; "f" ] in
  let traces = Universe.traces alpha in
  Printf.printf "U_E over {e,~e,f,~f}: %d traces (paper: 13)\n"
    (List.length traces);
  Printf.printf "  %s\n"
    (String.concat " " (List.map Trace.to_string traces));
  Printf.printf "|[e]| = %d (paper: 5); |[e.f]| = %d (paper: 1)\n"
    (List.length (Semantics.denotation alpha (Expr.event "e")))
    (List.length
       (Semantics.denotation alpha (Expr.seq (Expr.event "e") (Expr.event "f"))));
  Printf.printf "%-4s %12s %14s\n" "n" "|U_E|" "|U_T|";
  List.iter
    (fun n ->
      Printf.printf "%-4d %12d %14d\n" n (Universe.count n)
        (Universe.count_maximal n))
    [ 1; 2; 3; 4; 5 ];
  let alpha3 = Universe.of_names [ "e"; "f"; "g" ] in
  Printf.printf "enumeration of U_E (n=3): %s\n"
    (pp_ns (min_ns (fun () -> Universe.traces alpha3)))

(* --- F2: Figure 2, scheduler-state automata -------------------------------- *)

let bench_automata () =
  section "F2" "Scheduler states and transitions (Figure 2)";
  List.iter
    (fun (name, d) ->
      let aut = Automaton.build d in
      Format.printf "%s = %a (%d states)@.%a@." name Expr.pp d
        (Automaton.num_states aut) Automaton.pp aut)
    [ ("D<", Catalog.d_lt); ("D->", Catalog.d_arrow) ];
  Printf.printf "%-18s %8s %12s\n" "dependency" "states" "cold build";
  List.iter
    (fun (name, d) ->
      let states = Automaton.num_states (Automaton.build d) in
      (* Built automata are memoized: empty the memos so every sample
         constructs one. *)
      let t =
        min_ns (fun () ->
            Intern.clear_memos ();
            Automaton.build d)
      in
      Printf.printf "%-18s %8d %12s\n%!" name states (pp_ns t))
    Catalog.named

(* --- F3: Figure 3, temporal operators -------------------------------------- *)

let bench_figure3 () =
  section "F3" "Temporal operators related to events (Figure 3)";
  print_string (Tables.render (Tables.figure3 ()));
  Printf.printf "Laws of Example 8:\n";
  List.iter
    (fun (name, holds) ->
      Printf.printf "  %s : %s\n" name (if holds then "holds" else "VIOLATED"))
    (Tables.example8_laws ());
  Printf.printf "model checking the six laws: %s\n"
    (pp_ns (min_ns Tables.example8_laws))

(* --- F4/E9: guard synthesis ------------------------------------------------ *)

let bench_guards () =
  section "F4/E9" "Computing guards on events (Figure 4, Example 9)";
  let show d e paper =
    let gd = Synth.guard d (lit e) in
    Printf.printf "  G(%-22s, %-3s) = %-24s (paper: %s)\n" (Expr.to_string d) e
      (Formula.to_string (Guard.to_formula gd))
      paper
  in
  show Expr.top "e" "T";
  show Expr.zero "e" "0";
  show (Expr.event "e") "e" "T";
  show (Expr.complement "e") "e" "0";
  show Catalog.d_lt "~e" "T";
  show Catalog.d_lt "e" "!f";
  show Catalog.d_lt "~f" "T";
  show Catalog.d_lt "f" "<>~e + []e";
  show Catalog.d_arrow "e" "<>f (with transpose, Example 11)";
  Printf.printf "\n%-18s %-10s %12s %6s\n" "dependency" "event" "synthesis"
    "|G|";
  List.iter
    (fun (name, d) ->
      let ev = List.hd (Literal.Set.elements (Expr.literals d)) in
      let t = min_ns (fun () -> Synth.guard d ev) in
      Printf.printf "%-18s %-10s %12s %6d\n" name (Literal.to_string ev)
        (pp_ns t)
        (Guard.size (Synth.guard d ev)))
    Catalog.named

(* --- E10/E11: execution by guard evaluation -------------------------------- *)

let pair_wf deps =
  Workflow_def.make ~name:"pair"
    ~tasks:
      [
        Workflow_def.task ~instance:"t1" ~model:Task_model.transaction ~site:0 ();
        Workflow_def.task ~instance:"t2" ~model:Task_model.transaction ~site:1 ();
      ]
    ~deps ()

let show_trace (r : Event_sched.result) =
  String.concat " "
    (List.map
       (fun (o : Event_sched.occurrence) -> Literal.to_string o.Event_sched.lit)
       r.Event_sched.trace)

let bench_execution () =
  section "E10/E11" "Execution by guard evaluation (parking and promises)";
  let cases =
    [
      ("commit order (parking, E10)", [ ("cd", Catalog.commit_order "t1" "t2") ]);
      ( "mutual requirement (promises, E11)",
        [
          ("d", Catalog.strong_commit "t1" "t2");
          ("dT", Catalog.strong_commit "t2" "t1");
        ] );
      ( "order + requirement (reservation + conditional promise)",
        [
          ("cd", Catalog.commit_order "t1" "t2");
          ("sc", Catalog.strong_commit "t1" "t2");
        ] );
      ("exclusion (sacrifice)", [ ("ex", Catalog.exclusion "t1" "t2") ]);
    ]
  in
  List.iter
    (fun (name, deps) ->
      let r =
        Event_sched.run
          ~config:{ Event_sched.default_config with check_generates = true }
          (pair_wf deps)
      in
      Printf.printf "%-55s %s\n" name
        (if r.Event_sched.satisfied then "satisfied" else "VIOLATED");
      Printf.printf "    trace: %s\n" (show_trace r);
      Printf.printf "    msgs: %d (promises %d, reservations %d)\n"
        (Wf_obs.Metrics.count r.Event_sched.stats "messages_sent")
        (Wf_obs.Metrics.count r.Event_sched.stats "promises_granted"
        + Wf_obs.Metrics.count r.Event_sched.stats "promises_granted_conditional")
        (Wf_obs.Metrics.count r.Event_sched.stats "reservations_granted"))
    cases

(* --- E4: the travel workflow ------------------------------------------------ *)

let travel_wf ?(n = 1) ?(buy_fails = fun _ -> false) () =
  let tasks =
    List.concat
      (List.init n (fun i ->
           let suffix = if n = 1 then "" else string_of_int i in
           let site = 3 * i in
           [
             Workflow_def.task ~instance:("buy" ^ suffix)
               ~model:Task_model.transaction ~site
               ~script:
                 (if buy_fails i then Agent.aborting ()
                  else Agent.transactional ())
               ();
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
      (List.init n (fun i ->
           let suffix = if n = 1 then "" else string_of_int i in
           let ev base = lit (base ^ suffix) in
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

let bench_travel () =
  section "E4" "The travel workflow (Example 4)";
  List.iter
    (fun (label, fails) ->
      let wf = travel_wf ~buy_fails:(fun _ -> fails) () in
      let dist =
        Event_sched.run
          ~config:{ Event_sched.default_config with check_generates = true }
          wf
      in
      let central = Central_sched.run wf in
      Printf.printf "%s:\n" label;
      Printf.printf "  distributed: %-9s trace: %s\n"
        (if dist.Event_sched.satisfied then "satisfied" else "VIOLATED")
        (show_trace dist);
      Printf.printf "  centralized: %-9s trace: %s\n"
        (if central.Event_sched.satisfied then "satisfied" else "VIOLATED")
        (show_trace central))
    [ ("buy succeeds", false); ("buy fails (compensation)", true) ]

(* --- 2PC: two-phase commit from dependencies --------------------------------- *)

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

let bench_two_phase () =
  section "2PC" "Two-phase commit assembled from intertask dependencies";
  List.iter
    (fun (label, fails) ->
      let r = Event_sched.run (two_phase_wf ~p1_fails:fails) in
      Printf.printf "%-24s %-9s %s
" label
        (if r.Event_sched.satisfied then "satisfied" else "VIOLATED")
        (show_trace r))
    [ ("all prepare", false); ("participant 1 fails", true) ]

(* --- LAT: latency sensitivity -------------------------------------------------- *)

let bench_latency () =
  section "LAT" "Makespan vs inter-site latency (travel workflow, N=5)";
  Printf.printf "%8s | %12s | %12s
" "latency" "distributed" "centralized";
  List.iter
    (fun latency ->
      let wf = travel_wf ~n:5 () in
      let dist =
        Event_sched.run
          ~config:{ Event_sched.default_config with base_latency = latency }
          wf
      in
      let central =
        Central_sched.run
          ~config:{ Event_sched.default_config with base_latency = latency }
          wf
      in
      Printf.printf "%8.1f | %12.1f | %12.1f
%!" latency
        dist.Event_sched.makespan central.Event_sched.makespan)
    [ 0.1; 0.5; 1.0; 2.0; 5.0; 10.0 ]

(* --- FLT: fault tolerance ----------------------------------------------------- *)

let bench_faults () =
  section "FLT"
    "Makespan and message overhead under increasing loss (travel, N=5)";
  Printf.printf "%6s | %9s %6s %7s | %9s %6s %7s | %s\n" "drop" "makespan"
    "msgs" "retrans" "makespan" "msgs" "retrans" "ok";
  Printf.printf "%6s | %25s | %25s |\n" "" "----- distributed -----"
    "----- centralized -----";
  List.iter
    (fun drop_rate ->
      let wf = travel_wf ~n:5 () in
      let faults =
        { Wf_sim.Netsim.no_faults with drop_rate; duplicate_rate = drop_rate /. 2.0 }
      in
      let dist =
        Event_sched.run
          ~config:{ Event_sched.default_config with faults }
          wf
      in
      let central =
        Central_sched.run
          ~config:{ Event_sched.default_config with faults }
          wf
      in
      let msgs (r : Event_sched.result) name =
        Wf_obs.Metrics.count r.Event_sched.stats name
      in
      Printf.printf "%6.2f | %9.1f %6d %7d | %9.1f %6d %7d | %s\n%!" drop_rate
        dist.Event_sched.makespan (msgs dist "messages_sent")
        (msgs dist "chan_retransmits") central.Event_sched.makespan
        (msgs central "messages_sent")
        (msgs central "chan_retransmits")
        (if dist.Event_sched.satisfied && central.Event_sched.satisfied then
           "both satisfied"
         else "VIOLATION"))
    [ 0.0; 0.05; 0.1; 0.2; 0.3 ]

(* --- CRASH: crash-recovery overhead ----------------------------------------- *)

(* Crash-recovery overhead: the same workflow under growing crash
   probability.  Overhead shows up as makespan stretch (restart delays,
   retransmissions into crash windows) and message inflation; the
   recovery columns count actor/center rebuilds and the journal entries
   replayed to get there.  Every run must still satisfy all
   dependencies — recovery is exercised, not merely survived. *)
let bench_crash ~smoke =
  section "CRASH"
    "Makespan and recovery work under increasing crash probability (travel)";
  let n = if smoke then 2 else 5 in
  let probs = if smoke then [ 0.0; 0.05 ] else [ 0.0; 0.02; 0.05; 0.1; 0.25 ] in
  let faults_of prob =
    {
      Wf_sim.Netsim.no_faults with
      crash_on_deliver = prob;
      crash_on_send = prob /. 2.0;
      restart_delay = 2.0;
    }
  in
  Printf.printf "%6s %-12s | %9s %6s %7s %7s %8s | %s\n" "prob" "scheduler"
    "makespan" "msgs" "crashes" "recover" "replayed" "ok";
  let rows = ref [] and all_satisfied = ref true in
  List.iter
    (fun prob ->
      let wf = travel_wf ~n () in
      let faults = faults_of prob in
      let emit sched (r : Event_sched.result) =
        let count name = Wf_obs.Metrics.count r.Event_sched.stats name in
        let messages = count "messages_sent" and crashes = count "net_crashes" in
        let recoveries = count "actor_recoveries" + count "center_recoveries" in
        let replayed =
          count "replayed_entries" + count "center_replayed_entries"
        in
        let satisfied = r.Event_sched.satisfied in
        all_satisfied := !all_satisfied && satisfied;
        rows :=
          Json.Obj
            [
              ("scheduler", Json.Str sched);
              ("crash_prob", Json.Num prob);
              ("makespan", Json.Num r.Event_sched.makespan);
              ("messages", int messages);
              ("crashes", int crashes);
              ("recoveries", int recoveries);
              ("replayed_entries", int replayed);
              ("satisfied", Json.Bool satisfied);
            ]
          :: !rows;
        Printf.printf "%6.2f %-12s | %9.1f %6d %7d %7d %8d | %s\n%!" prob sched
          r.Event_sched.makespan messages crashes recoveries replayed
          (if satisfied then "satisfied" else "VIOLATION")
      in
      emit "distributed"
        (Event_sched.run ~config:{ Event_sched.default_config with faults } wf);
      emit "central"
        (Central_sched.run
           ~config:{ Event_sched.default_config with faults }
           wf))
    probs;
  ( [ ("results", Json.List (List.rev !rows)) ],
    [ ("all_satisfied", !all_satisfied) ] )

(* --- CHECK: exhaustive model checking ---------------------------------------- *)

(* The model checker's economics: states explored per second (DPOR side,
   the one CI runs), and the naive/DPOR state-count ratio — how much of
   the interleaving space the reduction proves redundant. *)
let bench_check ~smoke =
  section "CHECK"
    "Exhaustive interleaving exploration: DPOR reduction and throughput";
  let spec_dir =
    if Sys.file_exists "specs" then "specs"
    else if Sys.file_exists "../specs" then "../specs"
    else "../../specs"
  in
  let load name =
    (Wf_lang.Elaborate.load_file (Filename.concat spec_dir name))
      .Wf_lang.Elaborate.def
  in
  let timed fn =
    let t0 = Run.now_ns () in
    let r = fn () in
    (r, Run.seconds_since t0)
  in
  let configs =
    [ ("mc_pair.wf", 0); ("mc_trigger.wf", 0); ("mc_indep.wf", 0);
      ("mc_pair.wf", 1); ("mc_trigger.wf", 1) ]
    @ (if smoke then [] else [ ("mc_indep.wf", 1) ])
  in
  Printf.printf "%-16s %5s | %10s %10s %9s | %8s %6s | %12s\n" "spec" "crash"
    "naive" "dpor" "reduction" "runs" "divs" "states/sec";
  let all_clean = ref true and max_reduction = ref 0.0 in
  let rows =
    List.map
      (fun (spec, crash_depth) ->
        let wf = load spec in
        let max_states = 2_000_000 in
        let dpor, secs =
          timed (fun () ->
              Wf_check.Mc.check ~crash_depth ~max_states ~spec_name:spec wf)
        in
        let naive =
          Wf_check.Mc.check ~crash_depth ~max_states ~dpor:false
            ~spec_name:spec wf
        in
        let naive_states = naive.Wf_check.Mc.r_states in
        let dpor_states = dpor.Wf_check.Mc.r_states in
        let reduction = float_of_int naive_states /. float_of_int dpor_states in
        let divergences = List.length dpor.Wf_check.Mc.r_divergences in
        let complete =
          dpor.Wf_check.Mc.r_complete && naive.Wf_check.Mc.r_complete
        in
        let per_sec = float_of_int dpor_states /. secs in
        all_clean := !all_clean && divergences = 0 && complete;
        max_reduction := Float.max !max_reduction reduction;
        Printf.printf "%-16s %5d | %10d %10d %8.1fx | %8d %6d | %12.0f\n%!"
          spec crash_depth naive_states dpor_states reduction
          dpor.Wf_check.Mc.r_traces divergences per_sec;
        Json.Obj
          [
            ("spec", Json.Str spec);
            ("crash_depth", int crash_depth);
            ("naive_states", int naive_states);
            ("dpor_states", int dpor_states);
            ("reduction", Json.Num reduction);
            ("dpor_traces", int dpor.Wf_check.Mc.r_traces);
            ("divergences", int divergences);
            ("complete", Json.Bool complete);
            ("dpor_states_per_sec", Json.Num per_sec);
          ])
      configs
  in
  ( [ ("max_reduction", Json.Num !max_reduction); ("results", Json.List rows) ],
    [ ("all_clean", !all_clean) ] )

(* --- STORE: durable log overhead and salvage --------------------------------- *)

let store_codec : (string, string) Wf_store.Log.codec =
  {
    Wf_store.Log.enc_entry = Buffer.add_string;
    dec_entry = Option.some;
    enc_ckpt = Buffer.add_string;
    dec_ckpt = Option.some;
  }

(* The durable layer's economics: what framing + checksumming costs per
   append, how the salvage scan's latency grows with log length, and —
   per fault kind at probability 1 — how much of the log survives and
   whether every salvage is a valid prefix (the soundness claim the
   QCheck differential tests in anger). *)
let bench_store ~smoke =
  section "STORE"
    "Framed-log append overhead, salvage latency, and fault survival";
  let batch = 256 in
  let payload i = Printf.sprintf "entry-%04d" i in
  let plain_ns =
    min_ns (fun () ->
        let j = Wf_store.Journal.create ~checkpoint_every:max_int () in
        for i = 0 to batch - 1 do
          Wf_store.Journal.append j (payload i)
        done)
    /. float_of_int batch
  in
  let framed_ns =
    min_ns (fun () ->
        let j =
          Wf_store.Journal.create ~checkpoint_every:max_int
            ~store:(store_codec, Wf_store.Media.Sim.create ())
            ()
        in
        for i = 0 to batch - 1 do
          Wf_store.Journal.append j (payload i)
        done;
        Wf_store.Journal.sync j)
    /. float_of_int batch
  in
  let bytes_per_entry =
    let stats = Wf_obs.Metrics.create () in
    let j =
      Wf_store.Journal.create ~checkpoint_every:max_int
        ~store:(store_codec, Wf_store.Media.Sim.create ~stats ())
        ()
    in
    for i = 0 to batch - 1 do
      Wf_store.Journal.append j (payload i)
    done;
    Wf_store.Journal.sync j;
    float_of_int (Wf_obs.Metrics.count stats "store_appended_bytes")
    /. float_of_int batch
  in
  Printf.printf "%-34s %12s\n" "journal append (in-memory only)" (pp_ns plain_ns);
  Printf.printf "%-34s %12s  (%.1fx, %.0f bytes/entry)\n"
    "journal append (framed + crc32)" (pp_ns framed_ns) (framed_ns /. plain_ns)
    bytes_per_entry;
  (* Salvage-scan latency: recover repairs in place and is idempotent,
     so re-scanning the same clean image measures exactly the verify
     pass over n frames. *)
  let lengths = if smoke then [ 100; 1_000 ] else [ 100; 1_000; 10_000 ] in
  let recover_rows =
    List.map
      (fun n ->
        let sim = Wf_store.Media.Sim.create () in
        let log = Wf_store.Log.create store_codec sim in
        for i = 0 to n - 1 do
          Wf_store.Log.append log (payload i);
          if (i + 1) mod 64 = 0 then
            Wf_store.Log.checkpoint log (string_of_int (i + 1))
        done;
        Wf_store.Log.sync log;
        let t =
          min_ns (fun () -> Wf_store.Log.recover store_codec sim)
        in
        Printf.printf "salvage scan over %6d entries: %12s\n%!" n (pp_ns t);
        Json.Obj [ ("entries", int n); ("scan_ns", Json.Num t) ])
      lengths
  in
  (* Fault survival: 24 entries through a journal on the medium, with
     checkpoints at 8 and 16, the final third unsynced, one fault kind
     forced per crash of the journal.  A salvage is valid when the kept entries are a consecutive prefix continuation
     of the chosen checkpoint and a second scan of the repaired image
     is clean. *)
  let trials = if smoke then 50 else 200 in
  let total = 24 in
  let salvage_trial kind seed =
    let faults =
      let base = { Wf_store.Media.Sim.no_faults with max_faults = 1 } in
      match kind with
      | "torn_write" -> { base with Wf_store.Media.Sim.torn_write = 1.0 }
      | "lost_tail" -> { base with Wf_store.Media.Sim.lost_tail = 1.0 }
      | "bit_flip" -> { base with Wf_store.Media.Sim.bit_flip = 1.0 }
      | _ -> { base with Wf_store.Media.Sim.ckpt_corrupt = 1.0 }
    in
    let stats = Wf_obs.Metrics.create () in
    let sim = Wf_store.Media.Sim.create ~faults ~seed ~stats () in
    let j =
      Wf_store.Journal.create ~checkpoint_every:max_int
        ~store:(store_codec, sim) ()
    in
    for i = 0 to total - 1 do
      Wf_store.Journal.append j (Printf.sprintf "e-%d" i);
      if i = 7 || i = 15 then
        Wf_store.Journal.checkpoint j (string_of_int (i + 1))
    done;
    Wf_store.Journal.crash j;
    let ckpt, suffix = Wf_store.Journal.recover j in
    let r = Option.get (Wf_store.Journal.last_salvage j) in
    let start = match ckpt with None -> 0 | Some c -> int_of_string c in
    let consecutive =
      List.for_all2
        (fun e i -> e = Printf.sprintf "e-%d" i)
        suffix
        (List.init (List.length suffix) (fun k -> start + k))
    in
    let _, _, r2 = Wf_store.Log.recover store_codec sim in
    let valid =
      consecutive
      && start + List.length suffix <= total
      && r2.Wf_store.Log.sr_stop = Wf_store.Log.Clean
      && r2.Wf_store.Log.sr_total_entries = r.Wf_store.Log.sr_total_entries
    in
    let stat = if kind = "torn_write" then "torn" else kind in
    let fired = Wf_obs.Metrics.count stats ("store_fault_" ^ stat) > 0 in
    let fallback = r.Wf_store.Log.sr_ckpt = Wf_store.Log.Fallback in
    (fired, fallback, float_of_int r.Wf_store.Log.sr_total_entries, valid)
  in
  Printf.printf "%-14s %7s %7s %10s %10s %7s\n" "fault" "trials" "fired"
    "fallbacks" "kept" "valid";
  let all_valid = ref true and all_fired = ref true in
  let salvage_rows =
    List.map
      (fun kind ->
        let fired = ref 0 and fallbacks = ref 0 in
        let kept = ref 0.0 and valid = ref true in
        for i = 1 to trials do
          let f, fb, k, v = salvage_trial kind (Int64.of_int (7919 * i)) in
          if f then incr fired;
          if fb then incr fallbacks;
          kept := !kept +. k;
          valid := !valid && v
        done;
        let kept = !kept /. float_of_int (trials * total) in
        all_valid := !all_valid && !valid;
        all_fired := !all_fired && !fired > 0;
        Printf.printf "%-14s %7d %7d %10d %9.1f%% %7s\n%!" kind trials !fired
          !fallbacks (100.0 *. kept)
          (if !valid then "yes" else "NO");
        Json.Obj
          [
            ("fault", Json.Str kind);
            ("trials", int trials);
            ("fired", int !fired);
            ("fallbacks", int !fallbacks);
            ("mean_kept_fraction", Json.Num kept);
            ("all_valid", Json.Bool !valid);
          ])
      [ "torn_write"; "lost_tail"; "bit_flip"; "ckpt_corrupt" ]
  in
  ( [
      ( "append",
        Json.Obj
          [
            ("plain_ns", Json.Num plain_ns);
            ("framed_ns", Json.Num framed_ns);
            ("overhead", Json.Num (framed_ns /. plain_ns));
            ("bytes_per_entry", Json.Num bytes_per_entry);
          ] );
      ("recovery", Json.List recover_rows);
      ("salvage", Json.List salvage_rows);
    ],
    [ ("all_valid", !all_valid); ("all_fired", !all_fired) ] )

(* --- E13/E14: parametrized scheduling --------------------------------------- *)

let bench_param () =
  section "E13/E14" "Parametrized events (Examples 13 and 14)";
  let eng =
    Param_sched.create
      [
        Ptemplate.mutual_exclusion_template ~t1:"t1" ~t2:"t2";
        Ptemplate.mutual_exclusion_template ~t1:"t2" ~t2:"t1";
      ]
  in
  let rng = Wf_sim.Rng.create 11L in
  let state = [| (0, false); (0, false) |] in
  let names = [| "t1"; "t2" |] in
  let rounds = 50 in
  let contended = ref 0 in
  let steps = ref 0 in
  while (fst state.(0) < rounds || fst state.(1) < rounds) && !steps < 100_000 do
    incr steps;
    let i = if Wf_sim.Rng.bool rng then 0 else 1 in
    let round, inside = state.(i) in
    if round < rounds then begin
      let prefix = if inside then "e_" else "b_" in
      let sym =
        Symbol.parametrized (prefix ^ names.(i)) [ string_of_int (round + 1) ]
      in
      match Param_sched.attempt eng sym with
      | Param_sched.Accepted ->
          state.(i) <- (if inside then (round + 1, false) else (round, true))
      | Param_sched.Already ->
          incr contended;
          state.(i) <- (if inside then (round + 1, false) else (round, true))
      | Param_sched.Parked -> ()
      | Param_sched.Rejected | Param_sched.Busy _ ->
          failwith "unexpected rejection"
    end
  done;
  Printf.printf
    "mutual exclusion, %d rounds each: trace of %d tokens, %d contended admissions\n"
    rounds
    (Trace.length (Param_sched.trace eng))
    !contended;
  (* Example 14 statuses. *)
  let template =
    Guard.sum
      (Guard.hasnt (Literal.pos (Symbol.parametrized "f" [ "?y" ])))
      (Guard.has (Literal.pos (Symbol.parametrized "g" [ "?y" ])))
  in
  let eng14 = Param_sched.create [] in
  let status () =
    match Param_sched.instance_status eng14 template ~bound:[] with
    | Knowledge.True -> "enabled"
    | Knowledge.False -> "disabled"
    | Knowledge.Unknown -> "waiting"
  in
  Printf.printf "Example 14 guard on e[x] = !f[y] + []g[y]:\n";
  Printf.printf "  initially: %s" (status ());
  Param_sched.occurred eng14 (Literal.pos (Symbol.parametrized "f" [ "7" ]));
  Printf.printf "; after f[7]: %s" (status ());
  Param_sched.occurred eng14 (Literal.pos (Symbol.parametrized "g" [ "7" ]));
  Printf.printf "; after g[7]: %s (resurrected)\n" (status ());
  Printf.printf "parametrized decision: %s\n"
    (pp_ns
       (min_ns (fun () ->
            Param_sched.instance_status eng14 template ~bound:[])))

(* --- S1: precompilation pays off -------------------------------------------- *)

(* An event's guard due to a workflow, synthesized on the spot: the
   conjunction of the guards its dependencies give it. *)
let workflow_guard deps ev =
  Guard.conj_all
    (List.filter_map
       (fun d ->
         List.find_map
           (fun (l, g) -> if Literal.equal l ev then Some g else None)
           (Synth.guards d))
       deps)

let bench_precompile () =
  section "S1"
    "Precompiled guards vs on-the-fly synthesis vs naive residual re-check";
  let deps = List.map snd (Catalog.travel_workflow ()) in
  let compiled = Compile.compile deps in
  let ev = lit "c_buy" in
  let plan = Compile.plan compiled ev in
  let know =
    Knowledge.empty
    |> Knowledge.occurred (lit "s_book") ~seqno:1
    |> Knowledge.occurred (lit "s_buy") ~seqno:2
    |> Knowledge.occurred (lit "c_book") ~seqno:3
  in
  let trace = Trace.of_events [ "s_book"; "s_buy"; "c_book" ] in
  let t_pre =
    min_ns (fun () ->
        Knowledge.status know plan.Compile.guard)
  in
  let t_fly =
    min_ns (fun () ->
        Knowledge.status know (workflow_guard deps ev))
  in
  let t_naive =
    min_ns (fun () ->
        (* re-fold every dependency over the whole trace, then residuate
           by the candidate event and test satisfiability *)
        List.for_all
          (fun d ->
            let nf = Residue.by_trace (Nf.of_expr d) trace in
            not (Nf.is_zero (Residue.nf nf ev)))
          deps)
  in
  Printf.printf "%-36s %12s %9s\n" "decision procedure" "per decision" "slowdown";
  Printf.printf "%-36s %12s %9s\n" "precompiled guard (the paper's)"
    (pp_ns t_pre) "1.0x";
  Printf.printf "%-36s %12s %8.1fx\n" "synthesize guard at each decision"
    (pp_ns t_fly) (t_fly /. t_pre);
  Printf.printf "%-36s %12s %8.1fx\n" "naive residual re-check" (pp_ns t_naive)
    (t_naive /. t_pre)

(* --- S2: distributed vs centralized scheduling ------------------------------ *)

let max_site_load stats num_sites =
  let m = ref 0 in
  for site = 0 to num_sites - 1 do
    m := max !m (Wf_obs.Metrics.count stats (Printf.sprintf "site_recv_%d" site))
  done;
  !m

let bench_scalability () =
  section "S2" "Distributed event-centric vs centralized scheduling";
  Printf.printf "%3s | %9s %9s %9s | %9s %9s %9s | %s\n" "N" "makespan"
    "msgs" "hotspot" "makespan" "msgs" "hotspot" "ok";
  Printf.printf "%3s | %29s | %29s |\n" "" "---- distributed ----"
    "---- centralized ----";
  List.iter
    (fun n ->
      let wf = travel_wf ~n ~buy_fails:(fun i -> i mod 3 = 2) () in
      let sites = Workflow_def.num_sites wf in
      let dist = Event_sched.run wf in
      let central = Central_sched.run wf in
      Printf.printf "%3d | %9.1f %9d %9d | %9.1f %9d %9d | %s\n%!" n
        dist.Event_sched.makespan
        (Wf_obs.Metrics.count dist.Event_sched.stats "messages_sent")
        (max_site_load dist.Event_sched.stats sites)
        central.Event_sched.makespan
        (Wf_obs.Metrics.count central.Event_sched.stats "messages_sent")
        (max_site_load central.Event_sched.stats sites)
        (if dist.Event_sched.satisfied && central.Event_sched.satisfied then
           "both satisfied"
         else "VIOLATION"))
    [ 1; 2; 5; 10; 25; 50 ]

(* --- S3: synthesis scaling --------------------------------------------------- *)

let bench_synthesis_scaling () =
  section "S3" "Guard synthesis cost vs dependency size";
  Printf.printf "%-28s %8s %10s %8s %12s\n" "dependency" "states" "paths"
    "|G(mid)|" "synthesis";
  List.iter
    (fun n ->
      let atoms =
        List.init n (fun i -> Expr.event (Printf.sprintf "x%d" i))
      in
      let d = Expr.seq_all atoms in
      let mid = lit (Printf.sprintf "x%d" (n / 2)) in
      let states = Automaton.num_states (Automaton.build d) in
      let paths = List.length (Paths.pi d) in
      let t = min_ns (fun () -> Synth.guard d mid) in
      Printf.printf "%-28s %8d %10d %8d %12s\n"
        (Printf.sprintf "chain of %d events" n)
        states paths
        (Guard.size (Synth.guard d mid))
        (pp_ns t))
    [ 2; 3; 4; 5; 6; 7 ]

(* --- fastpath: Theorem 4 ablation -------------------------------------------- *)

let bench_fastpath () =
  section "ABL" "Theorem 4 fast path: per-dependency vs monolithic synthesis";
  Printf.printf "%-4s %16s %16s %9s\n" "k" "per-dependency" "monolithic"
    "speedup";
  List.iter
    (fun k ->
      let deps =
        List.init k (fun i ->
            Catalog.commit_order
              (Printf.sprintf "a%d" i)
              (Printf.sprintf "b%d" i))
      in
      let ev = lit "c_a0" in
      let t_fast = min_ns (fun () -> workflow_guard deps ev) in
      let t_mono = min_ns (fun () -> Synth.guard (Expr.conj_all deps) ev) in
      Printf.printf "%-4d %16s %16s %8.1fx\n" k (pp_ns t_fast) (pp_ns t_mono)
        (t_mono /. t_fast))
    [ 1; 2; 3 ]

(* --- CORE: hash-consed symbolic core vs the naive oracle --------------------- *)

(* Before/after measurements of the interned + memoized kernels against
   the naive reference paths they replaced.  "Naive" runs with
   [Intern.set_enabled false], which routes residuation, guard
   synthesis, and automaton construction through the oracle
   implementations; "optimized" clears the derived memo tables before
   every iteration, so each sample is a cold full-workload computation —
   the ratio shows sharing {e within} one workload, not cache hits
   across bench iterations (which would flatter the optimized side). *)

type core_row = {
  bench : string;
  config : string;
  identity : string option;
      (* automaton-build only: the state identity [Automaton] uses for
         this dependency, "semantic" or "syntactic" *)
  naive_ns : float;
  opt_ns : float;
  minor_words : float; (* allocation of one optimized-leg execution *)
  major_words : float;
}

let speedup r = r.naive_ns /. r.opt_ns

let core_row_json r =
  Json.Obj
    ([ ("bench", Json.Str r.bench); ("config", Json.Str r.config) ]
    @ (match r.identity with Some m -> [ ("identity", Json.Str m) ] | None -> [])
    @ [
        ("naive_ns", Json.Num r.naive_ns);
        ("optimized_ns", Json.Num r.opt_ns);
        ("speedup", Json.Num (speedup r));
        ("minor_words", Json.Num r.minor_words);
        ("major_words", Json.Num r.major_words);
      ])

(* Allocation of a single execution, from [Gc.quick_stat] deltas; words
   are deterministic where timings are not, so one sample suffices.
   [quick_stat]'s minor_words only advances at minor collections, so
   force one on each side to avoid 256k-word quantization (the closing
   collection promotes survivors, which is the major-words figure we
   want anyway: what the execution pinned). *)
let alloc_words fn =
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  ignore (Sys.opaque_identity (fn ()));
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  ( s1.Gc.minor_words -. s0.Gc.minor_words,
    s1.Gc.major_words -. s0.Gc.major_words )

let pp_words w =
  if w >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let with_intern enabled fn =
  let prev = Intern.enabled () in
  Intern.set_enabled enabled;
  Intern.clear_memos ();
  Fun.protect ~finally:(fun () -> Intern.set_enabled prev) fn

(* The CORE kernels are millisecond-scale, so each sample is one call,
   as in [min_ns] past its batch floor.  The two legs alternate rep by
   rep, so contention windows longer than a single rep degrade both
   sides equally instead of skewing the ratio. *)
let core_bench ~budget ~rows ~bench ~config ?identity work =
  let work () = ignore (work ()) in
  let naive () = with_intern false work in
  let opt () =
    with_intern true (fun () ->
        Intern.clear_memos ();
        work ())
  in
  naive ();
  opt ();
  let best_n = ref (Float.max (time_calls 1 naive) 1.0) in
  let best_o = ref (Float.max (time_calls 1 opt) 1.0) in
  let reps = max 3 (min 25 (int_of_float (budget /. (!best_n +. !best_o)))) in
  for _ = 2 to reps do
    let t = time_calls 1 naive in
    if t < !best_n then best_n := t;
    let t = time_calls 1 opt in
    if t < !best_o then best_o := t
  done;
  let minor_words, major_words = alloc_words opt in
  let row =
    { bench; config; identity; naive_ns = !best_n; opt_ns = !best_o;
      minor_words; major_words }
  in
  rows := row :: !rows;
  Printf.printf "%-18s %-14s %12s %12s %8.1fx %10s %10s%s\n%!" bench config
    (pp_ns !best_n) (pp_ns !best_o) (speedup row) (pp_words minor_words)
    (pp_words major_words)
    (match identity with Some m -> " " ^ m | None -> "")

(* Automaton identifies states semantically over a small alphabet and
   syntactically otherwise; an automaton-build row names which. *)
let build_bench ~budget ~rows ~config d =
  let identity =
    if Automaton.small_alphabet (Expr.symbols d) then "semantic"
    else "syntactic"
  in
  core_bench ~budget ~rows ~bench:"automaton-build" ~config ~identity (fun () ->
      ignore (Automaton.build d))

(* Three synthetic dependency families of growing width: chains
   x0.x1...xn (long sequential residuation), fan-ins (x0 & ... & xn).fin
   whose conjunction interleavings blow up the normal form, and
   overlapping sliding-window chains whose residuals coincide across
   dependencies — the workload where a memo shared across the whole
   workflow (rather than per synthesis call) pays off most. *)
let chain_dep n =
  Expr.seq_all (List.init n (fun i -> Expr.event (Printf.sprintf "x%d" i)))

let fanin_dep n =
  Expr.seq
    (Expr.conj_all (List.init n (fun i -> Expr.event (Printf.sprintf "x%d" i))))
    (Expr.event "fin")

let overlap_deps k =
  List.init k (fun i ->
      Expr.seq_all
        (List.init 5 (fun j -> Expr.event (Printf.sprintf "x%d" (i + j)))))

(* Conjunction of two n-chains over disjoint symbols: the automaton is
   the (n+1)x(n+1) product grid, so states multiply while the alphabet
   (2n symbols) stays beyond the semantic-merge threshold — the
   regime where state dedup and residuation dominate construction. *)
let grid_dep n =
  Expr.conj
    (Expr.seq_all (List.init n (fun i -> Expr.event (Printf.sprintf "x%d" i))))
    (Expr.seq_all (List.init n (fun i -> Expr.event (Printf.sprintf "y%d" i))))

(* Three-way product: normal forms are the shuffles of three chains, so
   they get wide fast — the regime where memoized term residues and
   id-keyed state dedup matter most. *)
let cube_dep n =
  Expr.conj_all
    [
      Expr.seq_all (List.init n (fun i -> Expr.event (Printf.sprintf "x%d" i)));
      Expr.seq_all (List.init n (fun i -> Expr.event (Printf.sprintf "y%d" i)));
      Expr.seq_all (List.init n (fun i -> Expr.event (Printf.sprintf "z%d" i)));
    ]

let bench_core ~smoke =
  section "CORE" "Hash-consed symbolic core vs naive oracle (before/after)";
  let budget = if smoke then 5e7 else 5e8 in
  let chains = if smoke then [ 4 ] else [ 4; 6; 8; 10 ] in
  let fanins = if smoke then [ 2 ] else [ 2; 3; 4 ] in
  let grids = if smoke then [ 2 ] else [ 3; 4; 5 ] in
  let cubes = if smoke then [] else [ 2; 3 ] in
  let overlaps = if smoke then [ 2 ] else [ 2; 4; 6 ] in
  let runs = if smoke then [ 1 ] else [ 2; 5 ] in
  let rows = ref [] in
  Printf.printf "%-18s %-14s %12s %12s %8s %10s %10s %s\n" "bench" "config"
    "naive" "optimized" "speedup" "opt-minor" "opt-major" "identity";
  (* Per-bench rows run narrow to wide, so the last row of each bench is
     its widest configuration — the headline number in the JSON. *)
  let dep_benches mk fam widths =
    List.iter
      (fun n ->
        let d = mk n in
        let config = Printf.sprintf "%s-%d" fam n in
        core_bench ~budget ~rows ~bench:"guard-synthesis" ~config (fun () ->
            ignore (Synth.guards d));
        build_bench ~budget ~rows ~config d)
      widths
  in
  (* Family order makes the last row of each bench its widest: chains
     and grids first, then overlapping windows, then fan-ins and cubes
     whose normal forms are the widest objects in the suite. *)
  dep_benches chain_dep "chain" chains;
  List.iter
    (fun n ->
      build_bench ~budget ~rows ~config:(Printf.sprintf "grid-%d" n) (grid_dep n))
    grids;
  List.iter
    (fun k ->
      let deps = overlap_deps k in
      core_bench ~budget ~rows ~bench:"guard-synthesis"
        ~config:(Printf.sprintf "overlap-%d" k) (fun () ->
          ignore (List.map Synth.guards deps)))
    overlaps;
  dep_benches fanin_dep "fanin" fanins;
  List.iter
    (fun n ->
      build_bench ~budget ~rows ~config:(Printf.sprintf "cube-%d" n) (cube_dep n))
    cubes;
  List.iter
    (fun n ->
      let wf = travel_wf ~n () in
      core_bench ~budget ~rows ~bench:"simulated-run"
        ~config:(Printf.sprintf "travel-%d" n) (fun () ->
          ignore (Event_sched.run wf)))
    runs;
  let emit row =
    rows := row :: !rows;
    Printf.printf "%-18s %-14s %12s %12s %8.1fx %10s %10s\n%!" row.bench
      row.config (pp_ns row.naive_ns) (pp_ns row.opt_ns) (speedup row)
      (pp_words row.minor_words) (pp_words row.major_words)
  in
  (* Steady-state compiled assimilation: the full lifetime of a chain
     guard, replayed symbol by symbol.  The symbolic leg folds the §4.3
     assimilation rules ([Guard.assimilate_occurred]) — each step
     residuates the remaining chain — while the compiled leg walks the
     transition table built once (and memoized) by Gtable.  Both legs
     take a few microseconds per pass or less, so [min_ns] batches them.
     Both modes run the same chains, so the gated widest row is the same
     row in CI's smoke run as in the full run. *)
  let ga_chains = [ 6; 10 ] in
  let ga_legs_agree = ref true in
  List.iter
    (fun n ->
      let d = chain_dep n in
      let g0 =
        with_intern true (fun () ->
            Synth.guard d (lit (Printf.sprintf "x%d" (n - 1))))
      in
      match with_intern true (fun () -> Gtable.lookup g0) with
      | None ->
          (* Guards past the compile bound stay on the symbolic leg at
             runtime too; nothing to compare. *)
          Printf.printf "%-18s chain-%-8d   (exceeds table bound; skipped)\n%!"
            "guard-assimilation" n
      | Some tbl ->
      let stream = List.init (n - 1) (fun i -> lit (Printf.sprintf "x%d" i)) in
      let symbolic () =
        List.fold_left (fun g x -> Guard.assimilate_occurred x g) g0 stream
      in
      let compiled () =
        List.fold_left
          (fun s x -> Gtable.step_occurred tbl s x)
          (Gtable.initial tbl) stream
      in
      (* The ratio counts only if both legs reach the same decision. *)
      if Guard.is_true (symbolic ())
         <> (Gtable.verdict tbl (compiled ()) = Gtable.Enabled)
      then begin
        Printf.printf "%-18s chain-%-8d   legs disagree on the final verdict\n%!"
          "guard-assimilation" n;
        ga_legs_agree := false
      end;
      let naive_ns = min_ns ~budget symbolic in
      let opt_ns = min_ns ~budget compiled in
      let minor_words, major_words = alloc_words compiled in
      emit
        { bench = "guard-assimilation"; config = Printf.sprintf "chain-%d" n;
          identity = None; naive_ns; opt_ns; minor_words; major_words })
    ga_chains;
  let rows = List.rev !rows in
  let of_bench b = List.filter (fun r -> r.bench = b) rows in
  (* The widest (last-listed) config of each bench is its headline
     number. *)
  let widest =
    List.fold_left
      (fun acc r -> (r.bench, r) :: List.remove_assoc r.bench acc)
      [] rows
    |> List.rev
  in
  (* Perf floors below the ratios a quiet machine measures (shared CI
     runners are noisy): compiled-table assimilation stays 5x ahead of
     the symbolic fold on its widest config, with both legs deciding
     alike, and the interned automaton build never loses to the naive
     oracle. *)
  let assim_5x =
    match List.rev (of_bench "guard-assimilation") with
    | r :: _ -> !ga_legs_agree && speedup r >= 5.0
    | [] -> false
  in
  ( [
      ("results", Json.List (List.map core_row_json rows));
      ("widest", Json.Obj (List.map (fun (b, r) -> (b, core_row_json r)) widest));
    ],
    [
      ("guard_assimilation_widest_5x", assim_5x);
      ( "automaton_build_1x",
        List.for_all (fun r -> speedup r >= 1.0) (of_bench "automaton-build") );
    ] )

(* --- open-loop fleets: OVERLOAD and SCALE ------------------------------------- *)

(* Open-loop Poisson arrivals: [f j t] sees arrival [j] at virtual time
   [t], in order, so [f] may draw from [rng] between arrivals. *)
let poisson_arrivals rng ~mean n f =
  let t = ref 0.0 in
  for j = 0 to n - 1 do
    t := !t +. Flow.arrival_delay Flow.Poisson ~rng ~now:!t ~mean;
    f j !t
  done

(* --- OVERLOAD: open-loop fleet arrivals against the admission gate ----------- *)

(* A fleet of clients fires parametrized commit attempts at one
   coordinator running the Param_sched engine over the chain family

     ~c[x]  +  p[x] . c[x]

   (per binding x, either the commit never happens or its prepare
   precedes it).  A commit arrives as an admission-gated [attempt];
   admitted, it parks awaiting its upstream prepare, which the
   coordinator then fetches and injects with [occurred] — and the
   prepare's fresh token makes the engine re-decide the whole parked
   backlog.  Service is charged in virtual time proportional to the
   decisions each input triggers (s0 + s1 * decides), so that sweep is
   the congestion physics: without admission control every arrival the
   server has not caught up with deepens the backlog, each prepare gets
   slower, and goodput collapses quadratically; with the gate the
   backlog is pinned at the shed watermark and saturated goodput holds.

   Arrivals are open loop — Poisson or synchronized 64-source bursts —
   at a multiple of the estimated saturated capacity.  Shed commits
   retry with the verdict's backoff until admitted, so once arrivals
   stop the run drains to quiescence and every binding must complete
   exactly once (prepare before commit, nothing parked): the
   exactly-once/dependency audit over the realized trace is part of the
   bench's gates.  Goodput counts only completions inside the arrival
   window, so late drained jobs do not flatter a saturated leg.  The
   template, the audit and the service model (s0, s1, the watermark and
   the capacity estimate) are wfbench's param-burst ones. *)

type ov_event = Ov_arrive of int | Ov_retry of int | Ov_prepare of int

type ov_row = {
  ov_family : string; (* "flow" | "noflow" *)
  ov_arrival : string;
  ov_load : float; (* offered / estimated capacity *)
  ov_jobs : int;
  ov_offered : float; (* realized arrivals per virtual time unit *)
  ov_goodput : float; (* in-window completions per virtual time unit *)
  ov_window : float;
  ov_shed : int;
  ov_probes : int;
  ov_max_parked : int;
  ov_in_window : int;
  ov_drained : int;
  ov_violations : int;
}

let ov_run ~flow ~arrival ~load ~jobs ~seed =
  let rng = Wf_sim.Rng.create seed in
  let offered = load *. Saga.capacity in
  let arrivals = Array.make jobs 0.0 in
  (match arrival with
  | Flow.Poisson ->
      poisson_arrivals rng ~mean:(1.0 /. offered) jobs (fun j t ->
          arrivals.(j) <- t)
  | Flow.Burst ->
      (* [sources] synchronized open-loop sources, each firing once per
         batch period, together offering the same aggregate rate. *)
      let mean = float_of_int Saga.sources /. (4.0 *. offered) in
      let src_now = Array.make Saga.sources 0.0 in
      for j = 0 to jobs - 1 do
        let s = j mod Saga.sources in
        src_now.(s) <-
          src_now.(s)
          +. Flow.arrival_delay Flow.Burst ~rng ~now:src_now.(s) ~mean;
        arrivals.(j) <- src_now.(s)
      done;
      Array.sort compare arrivals);
  let eng =
    Param_sched.create
      ?flow:(if flow then Some Saga.flow_config else None)
      ~store_seed:seed [ Saga.template ]
  in
  (* Events pop by (time, push order): equal-time events run FIFO. *)
  let heap = Wf_sim.Heap.create () in
  let pushed = ref 0 in
  let push time ev =
    Wf_sim.Heap.push heap ~key:time ~seq:!pushed ev;
    incr pushed
  in
  Array.iteri (fun j t -> push t (Ov_arrive j)) arrivals;
  let free_at = ref 0.0 in
  let done_at = Array.make jobs nan in
  let drained = ref 0 in
  let max_parked = ref 0 in
  let charge now w0 =
    let dw = Param_sched.work eng - w0 in
    free_at := Float.max now !free_at +. Saga.s0 +. (Saga.s1 *. float_of_int dw)
  in
  let complete j =
    done_at.(j) <- !free_at;
    incr drained
  in
  let commit j now =
    let w0 = Param_sched.work eng in
    match Param_sched.attempt eng (Saga.sym "c" j) with
    | Param_sched.Busy { retry_after } ->
        (* shed at the gate: no server time spent, caller owns the timer *)
        push (now +. retry_after) (Ov_retry j)
    | Param_sched.Parked ->
        charge now w0;
        let depth = Param_sched.parked_count eng in
        if depth > !max_parked then max_parked := depth;
        push !free_at (Ov_prepare j)
    | Param_sched.Accepted | Param_sched.Already ->
        charge now w0;
        complete j
    | Param_sched.Rejected -> failwith "overload: commit rejected"
  in
  let prepare j now =
    let w0 = Param_sched.work eng in
    Param_sched.occurred eng (Literal.pos (Saga.sym "p" j));
    charge now w0;
    complete j
  in
  while not (Wf_sim.Heap.is_empty heap) do
    let now = Wf_sim.Heap.min_key heap in
    match Wf_sim.Heap.take heap with
    | Ov_arrive j | Ov_retry j -> commit j now
    | Ov_prepare j -> prepare j now
  done;
  let stats = Param_sched.stats eng in
  let last = arrivals.(jobs - 1) in
  let in_window = ref 0 in
  Array.iter (fun t -> if t <= last then incr in_window) done_at;
  {
    ov_family = (if flow then "flow" else "noflow");
    ov_arrival = Flow.arrival_to_string arrival;
    ov_load = load;
    ov_jobs = jobs;
    ov_offered = float_of_int jobs /. last;
    ov_goodput = float_of_int !in_window /. last;
    ov_window = last;
    ov_shed = Wf_obs.Metrics.count stats "flow_shed";
    ov_probes = Wf_obs.Metrics.count stats "flow_probe_admits";
    ov_max_parked = !max_parked;
    ov_in_window = !in_window;
    ov_drained = !drained;
    ov_violations =
      Bool.to_int (Param_sched.parked_count eng <> 0)
      + Saga.audit ~n:jobs (Param_sched.trace eng);
  }

let ov_row_json r =
  Json.Obj
    [
      ("family", Json.Str r.ov_family);
      ("arrival", Json.Str r.ov_arrival);
      ("load", Json.Num r.ov_load);
      ("jobs", int r.ov_jobs);
      ("offered", Json.Num r.ov_offered);
      ("goodput", Json.Num r.ov_goodput);
      ("window", Json.Num r.ov_window);
      ("shed", int r.ov_shed);
      ("probe_admits", int r.ov_probes);
      ("max_parked", int r.ov_max_parked);
      ("completed_in_window", int r.ov_in_window);
      ("drained", int r.ov_drained);
      ("violations", int r.ov_violations);
    ]

let bench_overload ~smoke =
  section "OVERLOAD"
    "Open-loop fleet arrivals: admission gate vs unbounded backlog";
  let flow_jobs = if smoke then 2000 else 10_000 in
  let base_jobs = if smoke then 300 else 1200 in
  let loads = [ 0.5; 0.9; 2.0 ] in
  Printf.printf
    "capacity estimate %.3f pairs per virtual time unit; baseline runs \
     fewer jobs because its collapse is quadratic in real CPU too\n"
    Saga.capacity;
  Printf.printf "%-8s %-8s %5s %7s %9s %9s %8s %7s %7s %7s %5s\n" "family"
    "arrival" "load" "jobs" "offered" "goodput" "shed" "probes" "maxprk"
    "drain" "viol";
  let rows = ref [] in
  let leg i ~flow ~arrival ~load ~jobs =
    let seed = Int64.of_int (0x0F10AD + (37 * i)) in
    let r = ov_run ~flow ~arrival ~load ~jobs ~seed in
    Printf.printf "%-8s %-8s %5.1f %7d %9.3f %9.3f %8d %7d %7d %7d %5d\n%!"
      r.ov_family r.ov_arrival r.ov_load r.ov_jobs r.ov_offered r.ov_goodput
      r.ov_shed r.ov_probes r.ov_max_parked r.ov_drained r.ov_violations;
    rows := r :: !rows
  in
  List.iteri
    (fun i load ->
      leg i ~flow:true ~arrival:Flow.Poisson ~load ~jobs:flow_jobs)
    loads;
  List.iteri
    (fun i load ->
      leg (10 + i) ~flow:true ~arrival:Flow.Burst ~load ~jobs:flow_jobs)
    loads;
  List.iteri
    (fun i load ->
      leg (20 + i) ~flow:false ~arrival:Flow.Poisson ~load ~jobs:base_jobs)
    loads;
  let rows = List.rev !rows in
  let fam f = List.filter (fun r -> r.ov_family = f) rows in
  let at2 = List.filter (fun r -> r.ov_load >= 1.99) in
  let peak rs = List.fold_left (fun m r -> Float.max m r.ov_goodput) 0.0 rs in
  let flow = fam "flow" and base = fam "noflow" in
  (* Saturated goodput per arrival kind, as a share of its family peak. *)
  let flow_ratios =
    List.map
      (fun r ->
        let family_peak =
          peak (List.filter (fun x -> x.ov_arrival = r.ov_arrival) flow)
        in
        (r.ov_arrival, r.ov_goodput /. family_peak))
      (at2 flow)
  in
  let flow2 =
    match List.filter (fun r -> r.ov_arrival = "poisson") (at2 flow) with
    | r :: _ -> r.ov_goodput
    | [] -> nan
  in
  let base2 = match at2 base with r :: _ -> r.ov_goodput | [] -> nan in
  let collapse_ratio = base2 /. flow2 in
  List.iter
    (fun (arr, x) -> Printf.printf "flow %s 2x goodput ratio: %.2f\n" arr x)
    flow_ratios;
  Printf.printf "baseline 2x goodput vs flow 2x: %.2f\n" collapse_ratio;
  ( [
      ( "config",
        Json.Obj
          [
            ("s0", Json.Num Saga.s0);
            ("s1", Json.Num Saga.s1);
            ("shed_watermark", int Saga.watermark);
            ("probe_every", int Saga.flow_config.Flow.probe_every);
            ("retry_base", Json.Num Saga.flow_config.Flow.retry_base);
            ("retry_max", Json.Num Saga.flow_config.Flow.retry_max);
            ("capacity_est", Json.Num Saga.capacity);
          ] );
      ("legs", Json.List (List.map ov_row_json rows));
      ( "summary",
        Json.Obj
          [
            ( "flow_2x_ratios",
              Json.Obj (List.map (fun (a, x) -> (a, Json.Num x)) flow_ratios) );
            ("collapse_ratio", Json.Num collapse_ratio);
          ] );
    ],
    [
      ( "flow_goodput_ok",
        flow_ratios <> [] && List.for_all (fun (_, x) -> x >= 0.8) flow_ratios );
      ( "parked_bounded_ok",
        List.for_all (fun r -> r.ov_max_parked <= Saga.watermark + r.ov_probes) flow );
      ( "drain_clean_ok",
        List.for_all (fun r -> r.ov_violations = 0 && r.ov_drained = r.ov_jobs) rows );
      ("baseline_collapses_ok", collapse_ratio < 0.6);
    ] )

(* --- fleet scale bench (BENCH_SCALE.json) ------------------------------------- *)

(* One spec, 10^5..10^6 parameter bindings: the arena-backed Fleet
   engine against the symbolic Param_sched baseline on the same
   prepare/commit saga and the same Poisson arrival process as
   OVERLOAD.  Commits arrive first and park; each prepare lands an
   exponential lag later and un-parks its commit.  Reported per leg:
   sustained journaled inputs per wall second, p99 wall-clock latency
   of an enabling input (an occurrence that retires events), and
   GC-measured live bytes per instance. *)

type sc_row = {
  sc_engine : string; (* "param" | "fleet" *)
  sc_bindings : int;
  sc_inputs : int;
  sc_events : int; (* realized trace length *)
  sc_wall_s : float;
  sc_events_per_s : float;
  sc_p99_enable_us : float;
  sc_bytes_per_instance : float;
  sc_state_words : int; (* fleet flat-state words; -1 for param *)
  sc_table_steps : int;
  sc_symbolic_evals : int;
  sc_table_states : int;
      (* fleet: states of its compiled tables; param: Gtable states
         compiled or renamed during the leg *)
  sc_drained : bool;
  sc_violations : int;
}

(* What the scale leg reads beyond {!Param_engine.S}. *)
type 'e sc_eng = {
  sc_name : string; (* "param" | "fleet" *)
  sc_create : int -> 'e; (* for [n] bindings *)
  sc_words : 'e -> int;
  sc_table_states : 'e -> compiled:int -> int;
      (* [compiled]: the Gtable states compiled or renamed during the
         leg *)
  sc_symbolic_evals : 'e -> int;
      (* symbolic guard evaluations actually run: Param_sched's instance
         evaluations (cache misses and open instances), Fleet's
         [fleet_symbolic_evals] *)
}

let sc_prepare_lag = 8.0 (* mean prepare lag, in mean inter-arrival units *)

let sc_param =
  {
    sc_name = "param";
    sc_create = (fun _ -> Param_sched.create [ Saga.template ]);
    sc_words = (fun _ -> -1);
    sc_table_states = (fun _ ~compiled -> compiled);
    sc_symbolic_evals = Param_sched.evaluations;
  }

let sc_fleet =
  {
    sc_name = "fleet";
    (* ~16 checkpoints over the run: each scans the fate columns. *)
    sc_create =
      (fun n -> Fleet.create ~checkpoint_every:(Saga.cadence n) [ Saga.template ]);
    sc_words = Fleet.state_words;
    sc_table_states = (fun e ~compiled:_ -> Fleet.table_states e);
    sc_symbolic_evals =
      (fun e -> Wf_obs.Metrics.count (Fleet.stats e) "fleet_symbolic_evals");
  }

let sc_run (type e) (module E : Param_engine.S with type t = e) (x : e sc_eng)
    ~n ~seed ~audit =
  let rng = Wf_sim.Rng.create seed in
  (* Virtual-time schedule as flat preallocated arrays (slot [2j] is
     commit j's arrival, slot [2j+1] its prepare, an exponential lag
     later), sorted through an index permutation.  The arrays are built
     before the memory baseline and stay fully live until after the
     final measurement, so the live-words delta holds engine-held
     structures only — a consumable event heap would free its tuples
     mid-run and corrupt the accounting.  Symbols, unlike wfbench's
     [Saga.fleet_schedule], are built inside the timed loop: the token
     strings an engine keeps are then charged to its footprint. *)
  let m = 2 * n in
  let times = Array.make m 0.0 in
  poisson_arrivals rng ~mean:1.0 n (fun j t ->
      times.(2 * j) <- t;
      times.((2 * j) + 1) <- t +. Wf_sim.Rng.exponential rng ~mean:sc_prepare_lag);
  let order = Array.init m (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Float.compare times.(a) times.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  let enable_lat = Array.make n 0.0 in
  let n_lat = ref 0 in
  let compiled_states () =
    let stats = Gtable.stats () in
    List.assoc "compiled_states" stats + List.assoc "renamed_states" stats
  in
  let states0 = compiled_states () in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let eng = x.sc_create n in
  let inputs = ref 0 in
  let t0 = Run.now_ns () in
  for i = 0 to m - 1 do
    let slot = order.(i) in
    let j = slot / 2 in
    incr inputs;
    if slot land 1 = 0 then begin
      match E.attempt eng (Saga.sym "c" j) with
      | Parked | Accepted | Already -> ()
      | Rejected | Busy _ ->
          failwith "scale: commit rejected or shed"
    end
    else begin
      let u0 = Run.now_ns () in
      E.occurred eng (Literal.pos (Saga.sym "p" j));
      enable_lat.(!n_lat) <- Run.us_since u0;
      incr n_lat
    end
  done;
  let wall = Run.seconds_since t0 in
  let compiled = compiled_states () - states0 in
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let bytes_per_instance = float_of_int ((live1 - live0) * 8) /. float_of_int n in
  ignore (Sys.opaque_identity (times, order));
  let trace = E.trace eng in
  let events = Trace.length trace in
  let drained = E.parked_count eng = 0 && events = 2 * n in
  let violations =
    Bool.to_int (E.parked_count eng <> 0)
    + Bool.to_int (events <> 2 * n)
    + if audit then Saga.audit ~n trace else 0
  in
  let p99 = Wfbench_lib.Quantile.percentile (Array.sub enable_lat 0 !n_lat) 0.99 in
  let stats = E.stats eng in
  let row =
    {
      sc_engine = x.sc_name;
      sc_bindings = n;
      sc_inputs = !inputs;
      sc_events = events;
      sc_wall_s = wall;
      sc_events_per_s = float_of_int !inputs /. wall;
      sc_p99_enable_us = p99;
      sc_bytes_per_instance = bytes_per_instance;
      sc_state_words = x.sc_words eng;
      sc_table_steps = Wf_obs.Metrics.count stats "fleet_table_steps";
      sc_symbolic_evals = x.sc_symbolic_evals eng;
      sc_table_states = x.sc_table_states eng ~compiled;
      sc_drained = drained;
      sc_violations = violations;
    }
  in
  (* Keep the engine alive through both GC measurements above. *)
  ignore (Sys.opaque_identity eng);
  row

let sc_row_json r =
  Json.Obj
    [
      ("engine", Json.Str r.sc_engine);
      ("bindings", int r.sc_bindings);
      ("inputs", int r.sc_inputs);
      ("events", int r.sc_events);
      ("wall_s", Json.Num r.sc_wall_s);
      ("events_per_s", Json.Num r.sc_events_per_s);
      ("p99_enable_us", Json.Num r.sc_p99_enable_us);
      ("bytes_per_instance", Json.Num r.sc_bytes_per_instance);
      ("state_words", int r.sc_state_words);
      ("table_steps", int r.sc_table_steps);
      ("symbolic_evals", int r.sc_symbolic_evals);
      ("table_states", int r.sc_table_states);
      ("drained", Json.Bool r.sc_drained);
      ("violations", int r.sc_violations);
    ]

(* Absolute per-binding budgets for Fleet.  At smoke scale (10^4
   bindings) the fixed table floors and power-of-two interner slack
   dominate, so the smoke gate checks the loose budget; the full run
   holds Fleet at 10^5 bindings to the bound the former >= 10x
   param/fleet ratio set at Param_sched's 1434.5 B/instance.  The gate
   reads Fleet's own footprint, so a leaner Param_sched cannot fail it;
   the ratio stays in the summary. *)
let sc_mem_budget_bytes = 256.0
let sc_mem_full_bytes = 143.0

let bench_scale ~smoke =
  section "SCALE"
    "Fleet execution engine: one spec, 10^5..10^6 parameter bindings";
  let base_n = if smoke then 10_000 else 100_000 in
  let big_n = if smoke then 100_000 else 1_000_000 in
  Printf.printf "%-7s %9s %9s %8s %12s %10s %11s %7s %5s\n" "engine"
    "bindings" "inputs" "wall_s" "events/s" "p99_us" "bytes/inst" "drain"
    "viol";
  let leg i engine x ~n ~audit =
    let seed = Int64.of_int (0x5CA1E + (41 * i)) in
    let r = sc_run engine x ~n ~seed ~audit in
    Printf.printf "%-7s %9d %9d %8.2f %12.0f %10.1f %11.1f %7b %5d\n%!"
      r.sc_engine r.sc_bindings r.sc_inputs r.sc_wall_s r.sc_events_per_s
      r.sc_p99_enable_us r.sc_bytes_per_instance r.sc_drained r.sc_violations;
    r
  in
  let param = leg 0 (module Param_sched) sc_param ~n:base_n ~audit:true in
  let fleet = leg 1 (module Fleet) sc_fleet ~n:base_n ~audit:true in
  let big = leg 2 (module Fleet) sc_fleet ~n:big_n ~audit:false in
  let rows = [ param; fleet; big ] in
  let clean r = r.sc_drained && r.sc_violations = 0 in
  (* Memory and speed compare the two engines at the same [base_n]. *)
  let mem_ratio = param.sc_bytes_per_instance /. fleet.sc_bytes_per_instance in
  let fleet_speedup = fleet.sc_events_per_s /. param.sc_events_per_s in
  Printf.printf
    "param/fleet bytes per instance at %d bindings: %.1fx; fleet speedup %.2fx\n"
    base_n mem_ratio fleet_speedup;
  ( [
      ( "config",
        Json.Obj
          [
            ("spec", Json.Str "~c[x] + p[x].c[x]");
            ("arrival", Json.Str "poisson");
            ("prepare_lag_mean", Json.Num sc_prepare_lag);
          ] );
      ("legs", Json.List (List.map sc_row_json rows));
      ( "summary",
        Json.Obj
          [
            ("mem_ratio_param_over_fleet", Json.Num mem_ratio);
            ("fleet_bytes_per_instance", Json.Num fleet.sc_bytes_per_instance);
            ( "mem_budget_bytes",
              Json.Num (if smoke then sc_mem_budget_bytes else sc_mem_full_bytes) );
            ("mem_gate", Json.Str "fleet bytes_per_instance <= budget");
            ("fleet_speedup", Json.Num fleet_speedup);
          ] );
    ],
    [
      ( "mem_ok",
        fleet.sc_bytes_per_instance
        <= if smoke then sc_mem_budget_bytes else sc_mem_full_bytes );
      ("speed_ok", fleet_speedup >= 1.0);
      ("drain_exactly_once_ok", List.for_all clean rows);
      ("largest_leg_ok", clean big);
      (* Open verdicts are tabulated per table state, not per binding. *)
      ( "fleet_symbolic_bounded",
        List.for_all
          (fun r -> r.sc_engine <> "fleet" || r.sc_symbolic_evals <= r.sc_table_states)
          rows );
      (* Param_sched is fully symbolic: the differential oracle shares no
         table path with Fleet. *)
      ("param_table_free", param.sc_table_states = 0);
    ] )

(* --- artifacts: one suite table, one writer, one exit status ------------------ *)

(* A suite returns its artifact's body fields and its named gates. *)
type suite = {
  flag : string;
  name : string;
  file : string;  (** default artifact for a bare [--json] *)
  run : smoke:bool -> (string * Json.t) list * (string * bool) list;
}

(* The first entry also runs when no suite flag is given, after the
   paper sections. *)
let suites =
  let suite flag name file run = { flag; name; file; run } in
  [
    suite "--scaling" "core-scaling" "BENCH_CORE.json" bench_core;
    suite "--crash" "crash-recovery" "BENCH_CRASH.json" bench_crash;
    suite "--check" "model-check" "BENCH_CHECK.json" bench_check;
    suite "--store" "store" "BENCH_STORE.json" bench_store;
    suite "--overload" "overload" "BENCH_OVERLOAD.json" bench_overload;
    suite "--scale" "scale" "BENCH_SCALE.json" bench_scale;
  ]

let git_rev () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let rev = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if rev = "" then "unknown" else rev
  with Unix.Unix_error _ -> "unknown"

(* Digest of the sorted paths and contents of every *.ml, *.mli and
   dune file under lib/, bin/ and bench/ of the checkout (the nearest
   directory at or above the working one holding dune-project), so an
   artifact names its code even when [git_rev] ends in -dirty. *)
let source_digest () =
  let rec root dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let up = Filename.dirname dir in
      if up = dir then None else root up
  in
  let source f =
    f = "dune" || Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
  in
  let rec walk top rel acc =
    let path = Filename.concat top rel in
    if not (Sys.file_exists path) then acc
    else if Sys.is_directory path then
      Array.fold_left
        (fun acc f -> walk top (Filename.concat rel f) acc)
        acc (Sys.readdir path)
    else if source (Filename.basename rel) then rel :: acc
    else acc
  in
  match root (Sys.getcwd ()) with
  | None -> "unknown"
  | Some top ->
      List.fold_left (fun acc d -> walk top d acc) [] [ "lib"; "bin"; "bench" ]
      |> List.sort String.compare
      |> List.map (fun rel -> rel ^ "\000" ^ Digest.file (Filename.concat top rel))
      |> String.concat ""
      |> Digest.string |> Digest.to_hex

(* Top-level fields one per line, and the members of a top-level list
   or object one per line, so artifacts diff row by row. *)
let write_artifact path fields =
  let block opening closing items =
    opening ^ "\n    " ^ String.concat ",\n    " items ^ "\n  " ^ closing
  in
  let value = function
    | Json.List (_ :: _ as xs) -> block "[" "]" (List.map Json.to_string xs)
    | Json.Obj (_ :: _ as kvs) ->
        block "{" "}"
          (List.map (fun (k, v) -> Json.quote k ^ ": " ^ Json.to_string v) kvs)
    | v -> Json.to_string v
  in
  let oc = open_out path in
  output_string oc
    ("{\n  "
    ^ String.concat ",\n  "
        (List.map (fun (k, v) -> Json.quote k ^ ": " ^ value v) fields)
    ^ "\n}\n");
  close_out oc

(* Runs [s], prints its gates, writes the artifact when asked; true iff
   every gate passed. *)
let run_suite s ~smoke ~json =
  let body, gates = s.run ~smoke in
  let ok = List.for_all snd gates in
  List.iter
    (fun (g, pass) ->
      Printf.printf "gate %-30s %s\n" g (if pass then "PASS" else "FAIL"))
    gates;
  Printf.printf "%s gates %s\n%!" s.name (if ok then "PASS" else "FAIL");
  Option.iter
    (fun path ->
      write_artifact path
        ([
           ("suite", Json.Str s.name);
           ("mode", Json.Str (if smoke then "smoke" else "full"));
           ("git_rev", Json.Str (git_rev ()));
           ("source_digest", Json.Str (source_digest ()));
         ]
        @ body
        @ [
            ( "gates",
              Json.Obj
                (List.map (fun (g, pass) -> (g, Json.Bool pass)) gates
                @ [ ("ok", Json.Bool ok) ]) );
          ]);
      Printf.printf "wrote %s\n" path)
    json;
  ok

(* --- main --------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    ("usage: main.exe ["
    ^ String.concat "|" (List.map (fun s -> s.flag) suites)
    ^ "] [--smoke] [--json [FILE]]");
  exit 2

(* At most one suite flag; a bare [--json] means the suite's own file. *)
let parse_args args =
  let rec go suite smoke json = function
    | [] -> (suite, smoke, json)
    | "--smoke" :: rest -> go suite true json rest
    | "--json" :: file :: rest when file <> "" && file.[0] <> '-' ->
        go suite smoke (Some (Some file)) rest
    | "--json" :: rest -> go suite smoke (Some None) rest
    | flag :: rest -> (
        match (suite, List.find_opt (fun s -> s.flag = flag) suites) with
        | None, Some s -> go (Some s) smoke json rest
        | _ -> usage ())
  in
  go None false None args

let () =
  let chosen, smoke, json = parse_args (List.tl (Array.to_list Sys.argv)) in
  Printf.printf
    "Reproduction benches: Singh, \"Synthesizing Distributed Constrained \
     Events from Transactional Workflow Specifications\" (ICDE 1996)\n";
  let s =
    match chosen with
    | Some s -> s
    | None ->
        bench_universe ();
        bench_automata ();
        bench_figure3 ();
        bench_guards ();
        bench_execution ();
        bench_travel ();
        bench_two_phase ();
        bench_latency ();
        bench_faults ();
        ignore (bench_crash ~smoke);
        bench_param ();
        bench_precompile ();
        bench_scalability ();
        bench_synthesis_scaling ();
        bench_fastpath ();
        List.hd suites
  in
  let json = Option.map (Option.value ~default:s.file) json in
  let ok = run_suite s ~smoke ~json in
  Printf.printf "\nAll artifacts regenerated.\n";
  exit (if ok then 0 else 1)
