(* The channel's invariants at every step of scheduler runs.  A run is
   built with [Event_sched.build], started, and stepped one network
   event at a time with [Channel.For_testing.check] after each step
   until it quiesces; then it closes as [Event_sched.run] closes it (the
   closing phase's own settles are checked once, at its end).  Its
   occurrences and metrics must equal those of one [Event_sched.run] of
   the same config, so the invariants are checked on the very run that
   production executes.  The tier-1 suite sweeps a few seeds, the @check
   suite many. *)

open Wf_core
open Wf_scheduler
module Netsim = Wf_sim.Netsim

let specs = [ "travel"; "mc_pair"; "mc_trigger"; "mc_indep"; "two_phase" ]

let flow ~window ~cap =
  Some { Flow.default_config with credit_window = window; mailbox_cap = cap }

(* Each mix is meant to reach part of the protocol: the lossy one
   retransmits and suppresses duplicates; the crash one, whose sites
   stay down long, gives up, parks dead letters and revives them; the
   flow mixes block sends for credit, refuse mailbox entries, stall and
   wipe mailboxes in crashes.  Every mix has a small crash budget: with
   the default one, the cap mix's quick restarts crash-loop some runs
   to 10,000 crashes and millions of retransmissions (ROADMAP item 20),
   too many steps to check one by one. *)
let mixes =
  let crash =
    {
      Netsim.no_faults with
      crash_on_deliver = 0.05;
      crash_on_send = 0.02;
      restart_delay = 2.0;
      max_crashes = 10;
    }
  in
  [
    ( "lossy",
      {
        Netsim.no_faults with
        drop_rate = 0.2;
        duplicate_rate = 0.1;
        reorder_rate = 0.2;
        reorder_window = 2.0;
      },
      None,
      Flow.Poisson );
    ( "crash",
      {
        crash with
        crash_on_deliver = 0.3;
        crash_on_send = 0.0;
        restart_delay = 3000.0;
        max_crashes = 2;
        drop_rate = 0.2;
      },
      None,
      Flow.Poisson );
    ("flow+crash", crash, flow ~window:4 ~cap:64, Flow.Poisson);
    ( "cap",
      {
        crash with
        crash_on_deliver = 0.2;
        crash_on_send = 0.05;
        drop_rate = 0.25;
        duplicate_rate = 0.1;
      },
      flow ~window:2 ~cap:3,
      Flow.Poisson );
    ( "one-credit",
      { Netsim.no_faults with drop_rate = 0.3 },
      Option.map
        (fun cfg -> { cfg with Flow.shed_watermark = 1 })
        (flow ~window:1 ~cap:1),
      Flow.Burst );
  ]

(* What a comparison of two runs reads: every occurrence with its
   sequence number and time, the metrics, the makespan and the verdict. *)
let observed (r : Event_sched.result) =
  ( List.map
      (fun (o : Event_sched.occurrence) ->
        (Literal.to_string o.lit, o.seqno, o.time))
      r.trace,
    Wf_obs.Metrics.to_json r.stats,
    r.makespan,
    r.satisfied )

(* One run, stepped; the result and the steps taken before closing. *)
let stepped cfg def plan =
  let rt = Event_sched.build cfg def plan in
  Ground.start rt;
  let steps = ref 0 in
  while
    !steps < cfg.Event_sched.max_steps
    && not (Netsim.For_testing.quiescent rt.net)
  do
    Netsim.run ~max_steps:1 rt.net;
    Channel.For_testing.check rt.chan;
    incr steps
  done;
  Ground.close rt;
  Channel.For_testing.check rt.chan;
  let r =
    Event_sched.result cfg rt.net
      ~deps:(Compile.dependencies (Run_plan.compiled plan))
      ~occurrences:
        (List.map
           (fun (o : Ground.occurrence) ->
             { Event_sched.lit = o.lit; seqno = o.seqno; time = o.time })
           rt.occurrences)
      ~rejected:rt.rejected
  in
  (r, !steps)

type outcome = {
  runs : int;  (** stepped and unstepped runs *)
  steps : int;  (** checked steps over all stepped runs *)
  failures : string list;
  stats : Wf_obs.Metrics.t;  (** the stepped runs' metrics, merged *)
}

let sweep ~spec_dir ~seeds =
  let runs = ref 0 and steps = ref 0 and failures = ref [] in
  let stats = ref (Wf_obs.Metrics.create ()) in
  List.iter
    (fun spec ->
      let def =
        (Wf_lang.Elaborate.load_file (Filename.concat spec_dir (spec ^ ".wf")))
          .Wf_lang.Elaborate.def
      in
      let plan =
        match Run_plan.of_workflow def with
        | Ok plan -> plan
        | Error msg -> failwith msg
      in
      List.iter
        (fun (mix, faults, flow, arrival) ->
          List.iter
            (fun seed ->
              let cfg =
                { Event_sched.default_config with seed; faults; flow; arrival }
              in
              let fail msg =
                failures :=
                  Printf.sprintf "%s %s seed %Ld: %s" spec mix seed msg
                  :: !failures
              in
              runs := !runs + 2;
              match stepped cfg def plan with
              | exception Failure msg -> fail msg
              | r, n ->
                  steps := !steps + n;
                  stats := Wf_obs.Metrics.merge !stats r.Event_sched.stats;
                  if observed r <> observed (Event_sched.run ~config:cfg def)
                  then fail "the stepped run differs from one run")
            seeds)
        mixes)
    specs;
  {
    runs = !runs;
    steps = !steps;
    failures = List.rev !failures;
    stats = !stats;
  }
