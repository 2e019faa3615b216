open Wf_core
open Wf_tasks

type occurrence = Ground.occurrence = { lit : Literal.t; seqno : int; time : float }

type config = {
  seed : int64;
  base_latency : float;
  jitter : float;
  think_time : float;
  max_steps : int;
  check_generates : bool;
  checkpoint_every : int;
  faults : Wf_sim.Netsim.fault_config;
  store : Wf_store.Media.Sim.fault_config option;
  on_event : occurrence -> unit;
  tracer : Wf_obs.Trace.sink option;
  flow : Flow.config option;
  arrival : Flow.arrival;
}

let default_config =
  {
    seed = 42L;
    base_latency = 1.0;
    jitter = 0.2;
    think_time = 0.5;
    max_steps = 2_000_000;
    check_generates = false;
    checkpoint_every = 32;
    faults = Wf_sim.Netsim.no_faults;
    store = None;
    on_event = (fun _ -> ());
    tracer = None;
    flow = None;
    arrival = Flow.Poisson;
  }

type result = {
  trace : occurrence list;
  stats : Wf_obs.Metrics.t;
  makespan : float;
  satisfied : bool;
  violations : Expr.t list;
  generated : bool option;
  rejected : Literal.t list;
}

(* {2 The simulated run shell}

   Network, journals and the result: everything a simulated ground run
   needs besides its decision procedure.  The centralized baseline
   ({!Central_sched}) runs on the same shell. *)

let network cfg wf =
  let net =
    Wf_sim.Netsim.create ~seed:cfg.seed ~faults:cfg.faults
      ~num_sites:(Workflow_def.num_sites wf)
      ~latency:{ Wf_sim.Netsim.base = cfg.base_latency; jitter = cfg.jitter }
      ()
  in
  Wf_sim.Netsim.set_tracer net cfg.tracer;
  (* Retransmission timeout: generously above one round trip, so the
     fault-free fast path rarely fires a retransmit. *)
  let chan =
    Channel.create
      ~rto:(3.0 *. (cfg.base_latency +. cfg.jitter) +. 0.5)
      ?flow:cfg.flow net
  in
  (net, chan)

let journal cfg net codec ~seed ~site ~actor =
  let store =
    Option.map
      (fun faults ->
        ( codec,
          Wf_store.Media.Sim.create ~faults ~seed:(seed ())
            ~stats:(Wf_sim.Netsim.stats net)
            ~tracer:(fun () -> cfg.tracer)
            ~clock:(fun () -> Wf_sim.Netsim.now net)
            ~site ~actor () ))
      cfg.store
  in
  Wf_store.Journal.create ~checkpoint_every:cfg.checkpoint_every ?store ()

let result cfg net ~deps ~occurrences ~rejected =
  let trace = List.rev_map (fun o -> o.lit) occurrences in
  let violations = Correctness.violations deps trace in
  let generated =
    if cfg.check_generates then Some (Correctness.generates deps trace)
    else None
  in
  {
    trace = List.rev occurrences;
    stats = Wf_sim.Netsim.stats net;
    (* The last thing the run did: a timer that found nothing to do
       ([Netsim.idle]) moved the clock without counting. *)
    makespan =
      (match occurrences with
      | o :: _ -> Float.max o.time (Wf_sim.Netsim.busy_until net)
      | [] -> Wf_sim.Netsim.busy_until net);
    satisfied = violations = [];
    violations;
    generated;
    rejected = List.rev rejected;
  }

(* {2 The distributed engine} *)

let build ?guard_overrides cfg wf plan =
  let net, chan = network cfg wf in
  (* Per-actor storage media draw their fault seeds from a dedicated
     stream derived from the run seed, so enabling the store does not
     perturb the run's own randomness. *)
  let store_rng = Wf_sim.Rng.create (Int64.logxor cfg.seed 0x53544F52L) in
  let journal (a : Run_plan.actor) =
    let j =
      journal cfg net Actor.codec
        ~seed:(fun () -> Wf_sim.Rng.next_int64 store_rng)
        ~site:a.site ~actor:(Symbol.name a.sym)
    in
    { Ground.j; depth = 0 }
  in
  let rt =
    Ground.create ?guard_overrides ~net ~chan ~journal ~arrival:cfg.arrival
      ~think_time:cfg.think_time ~max_steps:cfg.max_steps
      ~on_event:cfg.on_event wf plan
  in
  (* Site message dispatch, behind the reliable channel: each protocol
     message is handled exactly once even when the network drops,
     duplicates, or reorders the wire traffic.  The payload names the
     receiving actor by slot. *)
  for site = 0 to Workflow_def.num_sites wf - 1 do
    Channel.on_receive chan site (fun _src (_, target, msg) ->
        Ground.deliver rt rt.slots.(target) (Actor.I_message msg))
  done;
  (* Crash recovery: when a site restarts, the channel's hook (created
     first, so it runs first) has already bumped the epoch and said
     Hello; now crash each hosted actor's journal (a salvage, over a
     medium), rebuild the actor from it and run the actor-level
     handshake. *)
  Wf_sim.Netsim.on_restart net (fun site ->
      let hosted = Ground.hosted rt site in
      List.iter
        (fun (slot : Ground.slot) ->
          Wf_store.Journal.crash slot.journal.j;
          Ground.recover rt slot)
        hosted;
      Ground.handshake rt ~epoch:(Channel.epoch chan site) hosted);
  rt

let run ?(config = default_config) wf =
  let plan =
    match Run_plan.of_workflow wf with
    | Ok plan -> plan
    | Error msg -> invalid_arg ("Event_sched.run: " ^ msg)
  in
  let rt = build config wf plan in
  (* Kick off every agent, run to quiescence, then close: alternate
     complement emission and network drain. *)
  Ground.start rt;
  Ground.close rt;
  result config rt.net
    ~deps:(Compile.dependencies (Run_plan.compiled plan))
    ~occurrences:rt.occurrences ~rejected:rt.rejected

let trace_literals result = List.map (fun o -> o.lit) result.trace
