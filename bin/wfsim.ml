(* wfsim — run a workflow specification on the simulated distributed
   environment under the distributed event-centric scheduler or the
   centralized baseline. *)

open Wf_core
open Wf_scheduler

let show_result verbose (r : Event_sched.result) =
  Format.printf "trace (%d events):@." (List.length r.Event_sched.trace);
  List.iter
    (fun (o : Event_sched.occurrence) ->
      Format.printf "  %6.2f  #%-3d %a@." o.Event_sched.time
        o.Event_sched.seqno Literal.pp o.Event_sched.lit)
    r.Event_sched.trace;
  if r.Event_sched.rejected <> [] then
    Format.printf "rejected: %s@."
      (String.concat ", "
         (List.map Literal.to_string r.Event_sched.rejected));
  Format.printf "makespan: %.2f@." r.Event_sched.makespan;
  Format.printf "all dependencies satisfied: %b@." r.Event_sched.satisfied;
  (match r.Event_sched.generated with
  | Some g -> Format.printf "generated per Definition 4: %b@." g
  | None -> ());
  List.iter
    (fun d -> Format.printf "VIOLATED: %a@." Expr.pp d)
    r.Event_sched.violations;
  if verbose then
    Format.printf "stats:@.%a@." Wf_obs.Metrics.pp r.Event_sched.stats

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

let write_trace_files trace_file chrome_file records =
  (match trace_file with
  | None -> ()
  | Some path ->
      with_out path (fun oc -> Wf_obs.Trace.write_jsonl oc records);
      Format.printf "wrote %d trace records to %s@." (List.length records) path);
  match chrome_file with
  | None -> ()
  | Some path ->
      with_out path (fun oc -> Wf_obs.Trace.write_chrome oc records);
      Format.printf "wrote chrome trace to %s@." path

let run_parametrized seed flow fleet def templates tracer collector trace_file
    chrome_file =
  let tmpls = List.map snd templates in
  if fleet && not (Fleet.eligible tmpls) then begin
    prerr_endline
      "wfsim: --fleet requires a fleet-eligible spec (every dependency \
       parametrized over exactly one variable, all-variable atom parameters, \
       consistent base arities)";
    exit 2
  end;
  let engine =
    if fleet then (module Fleet : Param_engine.S) else (module Param_sched)
  in
  let r =
    Param_driver.run ~seed:(Int64.of_int seed) ?tracer ?flow ~engine
      ~templates:tmpls def
  in
  (match collector with
  | None -> ()
  | Some (_, records) -> write_trace_files trace_file chrome_file (records ()));
  Format.printf "parametrized run (%d attempts):@." r.Param_driver.attempts;
  Format.printf "  trace: %a@." Trace.pp r.Param_driver.trace;
  if r.Param_driver.parked_final <> [] then
    Format.printf "  still parked: %s@."
      (String.concat ", "
         (List.map Symbol.name r.Param_driver.parked_final));
  Format.printf "  all scripts completed: %b@." r.Param_driver.finished;
  if r.Param_driver.finished then 0 else 1

(* "FROM:UNTIL:A/B" with comma-separated site lists, e.g. "5:20:0/1,2"
   cuts site 0 off from sites 1 and 2 between t=5 and t=20. *)
let parse_partition s =
  let fail () =
    Printf.eprintf "bad partition %S: expected FROM:UNTIL:A/B (e.g. 5:20:0/1,2)\n" s;
    exit 2
  in
  let sites part =
    try List.map int_of_string (String.split_on_char ',' part)
    with _ -> fail ()
  in
  match String.split_on_char ':' s with
  | [ from_s; until_s; groups ] -> (
      match String.split_on_char '/' groups with
      | [ a; b ] -> (
          try
            {
              Wf_sim.Netsim.cut_from = float_of_string from_s;
              cut_until = float_of_string until_s;
              group_a = sites a;
              group_b = sites b;
            }
          with _ -> fail ())
      | _ -> fail ())
  | _ -> fail ()

let validate_trace path =
  match Wf_obs.Trace.validate_file path with
  | Ok n ->
      Format.printf "%s: %d schema-valid trace records@." path n;
      0
  | Error e ->
      Format.eprintf "%s: INVALID trace: %s@." path e;
      1

let run path scheduler seed latency jitter think verbose check_gen no_gtable
    drop_rate duplicate_rate reorder_rate reorder_window partition_specs
    crash_prob crash_on_send restart_delay max_crashes checkpoint_every
    store store_torn store_lost_tail store_bit_flip store_ckpt_corrupt
    store_max_faults mailbox_cap credit_window shed_watermark arrival_s
    fleet trace_file chrome_file metrics_json validate =
  Gtable.set_enabled (not no_gtable);
  match validate with
  | Some trace_path -> exit (validate_trace trace_path)
  | None ->
  let path =
    match path with
    | Some p -> p
    | None ->
        prerr_endline "wfsim: a SPEC.wf argument is required (or --validate-trace)";
        exit 2
  in
  (* Flow control is on iff any of its knobs was given; unset knobs
     keep the Flow defaults. *)
  let flow =
    match (mailbox_cap, credit_window, shed_watermark) with
    | None, None, None -> None
    | _ ->
        let d = Flow.default_config in
        Some
          {
            d with
            Flow.mailbox_cap = Option.value mailbox_cap ~default:d.Flow.mailbox_cap;
            credit_window = Option.value credit_window ~default:d.Flow.credit_window;
            shed_watermark =
              Option.value shed_watermark ~default:d.Flow.shed_watermark;
          }
  in
  let arrival =
    match Flow.arrival_of_string arrival_s with
    | Some a -> a
    | None ->
        prerr_endline
          ("wfsim: unknown arrival process " ^ arrival_s
         ^ " (expected poisson or burst)");
        exit 2
  in
  let { Wf_lang.Elaborate.def; templates } = Wf_lang.Elaborate.load_file path in
  let collector =
    match (trace_file, chrome_file) with
    | None, None -> None
    | _ -> Some (Wf_obs.Trace.collector ())
  in
  let tracer = Option.map fst collector in
  if templates <> [] then begin
    if def.Wf_tasks.Workflow_def.deps <> [] then
      Format.printf
        "note: mixing ground and parametrized dependencies; running only the parametrized engine@.";
    exit
      (run_parametrized seed flow fleet def templates tracer collector
         trace_file chrome_file)
  end;
  if fleet then
    Format.printf
      "note: --fleet applies to parametrized specs only; running the ground \
       scheduler@.";
  let faults =
    {
      Wf_sim.Netsim.drop_rate;
      duplicate_rate;
      reorder_rate;
      reorder_window;
      partitions = List.map parse_partition partition_specs;
      crash_on_deliver = crash_prob;
      crash_on_send;
      restart_delay;
      max_crashes;
    }
  in
  let store =
    if
      store || store_torn > 0.0 || store_lost_tail > 0.0
      || store_bit_flip > 0.0 || store_ckpt_corrupt > 0.0
    then
      Some
        {
          Wf_store.Media.Sim.torn_write = store_torn;
          lost_tail = store_lost_tail;
          bit_flip = store_bit_flip;
          ckpt_corrupt = store_ckpt_corrupt;
          max_faults = store_max_faults;
        }
    else None
  in
  let run =
    match scheduler with
    | "distributed" -> Event_sched.run
    | "central" -> Central_sched.run
    | s ->
        prerr_endline ("unknown scheduler " ^ s);
        exit 2
  in
  let r =
    run
      ~config:
        {
          Event_sched.default_config with
          seed = Int64.of_int seed;
          base_latency = latency;
          jitter;
          think_time = think;
          check_generates = check_gen;
          checkpoint_every;
          faults;
          store;
          tracer;
          flow;
          arrival;
        }
      def
  in
  show_result verbose r;
  (match collector with
  | None -> ()
  | Some (_, records) -> write_trace_files trace_file chrome_file (records ()));
  (match metrics_json with
  | None -> ()
  | Some mpath ->
      with_out mpath (fun oc ->
          output_string oc (Wf_obs.Metrics.to_json r.Event_sched.stats);
          output_char oc '\n');
      Format.printf "wrote metrics to %s@." mpath);
  if r.Event_sched.satisfied then 0 else 1

open Cmdliner

let path = Arg.(value & pos 0 (some file) None & info [] ~docv:"SPEC.wf")

let scheduler =
  Arg.(value & opt string "distributed" & info [ "scheduler"; "s" ] ~docv:"KIND" ~doc:"distributed (event-centric) or central (dependency-centric baseline).")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.")
let latency = Arg.(value & opt float 1.0 & info [ "latency" ] ~doc:"Base inter-site latency.")
let jitter = Arg.(value & opt float 0.2 & info [ "jitter" ] ~doc:"Mean exponential latency jitter.")
let think = Arg.(value & opt float 0.5 & info [ "think" ] ~doc:"Mean agent think time.")
let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print statistics.")
let check_gen = Arg.(value & flag & info [ "check-generates" ] ~doc:"Also check Definition 4 (exponential in alphabet).")

let no_gtable =
  Arg.(value & flag & info [ "no-gtable" ]
         ~doc:"Evaluate guards with the symbolic residuation engine only, bypassing compiled transition tables; for differential debugging.")

let drop_rate =
  Arg.(value & opt float 0.0 & info [ "drop-rate" ] ~docv:"P"
         ~doc:"Probability that a remote message is silently dropped. The reliable channel retransmits until acknowledged.")

let duplicate_rate =
  Arg.(value & opt float 0.0 & info [ "duplicate-rate" ] ~docv:"P"
         ~doc:"Probability that a remote message is delivered twice. Receiver-side dedup keeps handling exactly-once.")

let reorder_rate =
  Arg.(value & opt float 0.0 & info [ "reorder-rate" ] ~docv:"P"
         ~doc:"Probability that a remote message escapes per-link FIFO and is delayed by up to $(b,--reorder-window).")

let reorder_window =
  Arg.(value & opt float 5.0 & info [ "reorder-window" ] ~docv:"T"
         ~doc:"Maximum extra delay (virtual time) for a reordered message.")

let partitions =
  Arg.(value & opt_all string [] & info [ "partition" ] ~docv:"FROM:UNTIL:A/B"
         ~doc:"Cut all links between site groups A and B (comma-separated site ids) during the window [FROM, UNTIL). Repeatable, e.g. $(b,--partition 5:20:0/1,2).")

let crash_prob =
  Arg.(value & opt float 0.0 & info [ "crash-prob" ] ~docv:"P"
         ~doc:"Probability that a site crashes right after handling a remote delivery. A crashed site drops deliveries until it restarts; recovered actors replay their write-ahead journal.")

let crash_on_send =
  Arg.(value & opt float 0.0 & info [ "crash-on-send" ] ~docv:"P"
         ~doc:"Probability that a site crashes right after a remote send.")

let restart_delay =
  Arg.(value & opt float 5.0 & info [ "restart-delay" ] ~docv:"T"
         ~doc:"Mean of the exponential restart delay after a crash; 0 restarts at the same virtual instant.")

let max_crashes =
  Arg.(value & opt int 10_000 & info [ "max-crashes" ] ~docv:"N"
         ~doc:"Global budget of injected crashes, so even $(b,--crash-prob 1.0) terminates.")

let checkpoint_every =
  Arg.(value & opt int 32 & info [ "checkpoint-every" ] ~docv:"N"
         ~doc:"Journal appends between state checkpoints: smaller means shorter replays after a crash, larger means cheaper appends.")

let store =
  Arg.(value & flag & info [ "store" ]
         ~doc:"Back every actor journal with a checksummed framed log over simulated storage (fault-free unless $(b,--store-*) rates are set). Recovery then rebuilds actors from the log's salvage scan instead of the in-memory journal.")

let store_torn =
  Arg.(value & opt float 0.0 & info [ "store-torn" ] ~docv:"P"
         ~doc:"Probability (per crash, per journal) that the final unsynced frame is torn mid-write. Implies $(b,--store).")

let store_lost_tail =
  Arg.(value & opt float 0.0 & info [ "store-lost-tail" ] ~docv:"P"
         ~doc:"Probability that the whole unsynced tail is lost in a crash. Implies $(b,--store).")

let store_bit_flip =
  Arg.(value & opt float 0.0 & info [ "store-bit-flip" ] ~docv:"P"
         ~doc:"Probability that one random bit of the log image flips in a crash (caught by the frame CRC). Implies $(b,--store).")

let store_ckpt_corrupt =
  Arg.(value & opt float 0.0 & info [ "store-ckpt-corrupt" ] ~docv:"P"
         ~doc:"Probability that the newest checkpoint frame is corrupted or truncated in a crash, forcing recovery to fall back to an older checkpoint. Implies $(b,--store).")

let store_max_faults =
  Arg.(value & opt int 2 & info [ "store-max-faults" ] ~docv:"N"
         ~doc:"Lifetime storage-fault budget per journal medium (default 2).")

let mailbox_cap =
  Arg.(value & opt (some int) None & info [ "mailbox-cap" ] ~docv:"N"
         ~doc:"Enable credit-based flow control with a bound of N messages on every receiver's inbound mailbox (arrivals beyond it are refused unacknowledged and retransmitted). Giving any $(b,--mailbox-cap), $(b,--credit-window), or $(b,--shed-watermark) turns flow control on; unset knobs keep their defaults (64/16/48).")

let credit_window =
  Arg.(value & opt (some int) None & info [ "credit-window" ] ~docv:"N"
         ~doc:"Per (sender, receiver) credit window: a sender stops transmitting data to a receiver after N unconsumed messages until credits are granted back. Implies flow control.")

let shed_watermark =
  Arg.(value & opt (some int) None & info [ "shed-watermark" ] ~docv:"N"
         ~doc:"Admission-control high-watermark: attempts arriving while the local queue depth is at or above N are shed with a seeded-backoff retry ($(b,flow_shed) counter, Shed trace records). Implies flow control.")

let arrival =
  Arg.(value & opt string "poisson" & info [ "arrival" ] ~docv:"KIND"
         ~doc:"Agent attempt arrival process: $(b,poisson) (exponential inter-arrival, the default) or $(b,burst) (all agents fire in synchronized batches of the same mean rate — the adversarial shape for flow control).")

let fleet =
  Arg.(value & flag & info [ "fleet" ]
         ~doc:"Run a parametrized spec on the arena-backed fleet execution engine instead of the symbolic per-instance engine. Requires a fleet-eligible spec: every dependency parametrized over exactly one variable, all-variable atom parameters, consistent base arities. Behaviorally identical outcomes; flat per-binding state sized for 10^5..10^6 bindings.")

let trace_file =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write the structured trace (send/deliver/drop/crash, channel retransmits/acks/epochs, guard-assimilation outcomes) as JSONL, one record per line.")

let chrome_file =
  Arg.(value & opt (some string) None & info [ "trace-chrome" ] ~docv:"FILE"
         ~doc:"Write the same trace in Chrome trace_event format (open in chrome://tracing or Perfetto; one track per site).")

let metrics_json =
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE"
         ~doc:"Write the run's metrics registry (counters, gauges, histogram summaries) as one JSON object.")

let validate =
  Arg.(value & opt (some file) None & info [ "validate-trace" ] ~docv:"FILE"
         ~doc:"Standalone mode: validate a JSONL trace written by $(b,--trace) against the record schema (closed kind set, per-kind required fields, non-decreasing time) and exit; no SPEC.wf is run.")

let cmd =
  let doc = "execute a workflow by distributed guard evaluation" in
  Cmd.v (Cmd.info "wfsim" ~doc)
    Term.(const run $ path $ scheduler $ seed $ latency $ jitter $ think
          $ verbose $ check_gen $ no_gtable $ drop_rate $ duplicate_rate
          $ reorder_rate $ reorder_window $ partitions $ crash_prob
          $ crash_on_send $ restart_delay $ max_crashes $ checkpoint_every
          $ store $ store_torn $ store_lost_tail $ store_bit_flip
          $ store_ckpt_corrupt $ store_max_faults $ mailbox_cap
          $ credit_window $ shed_watermark $ arrival $ fleet
          $ trace_file $ chrome_file $ metrics_json $ validate)

let () = exit (Cmd.eval' cmd)
