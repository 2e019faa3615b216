open Wf_core
open Wf_tasks

(** The distributed event-centric scheduler (Sections 2 and 4.3).

    Guards are compiled once ({!Wf_core.Compile}), localized on event
    actors placed at the sites of their tasks, and evaluated against
    locally assimilated knowledge; no central component exists.  Task
    agents attempt events; occurrences are announced only to the actors
    whose guards mention them.

    The plan — compiled guards, demand automata, actor parameters and
    subscriptions — is built once per spec ({!Run_plan}) and shared by
    every run of it; a run builds only its mutable state (actors,
    journals, agents, channel, network).

    The run ends with a {e closing} phase: when all activity quiesces,
    the complements of events that can no longer occur are emitted
    (making the realized trace maximal, as the temporal semantics
    requires), any attempts still parked are rejected, and the realized
    trace is checked against every dependency. *)

type config = {
  seed : int64;
  base_latency : float;  (** inter-site message latency *)
  jitter : float;  (** mean of the exponential latency jitter *)
  think_time : float;  (** mean delay between an agent's attempts *)
  max_steps : int;
  check_generates : bool;
      (** also verify Definition 4 w.r.t. the synthesized guards
          (exponential in alphabet; keep off for large workflows) *)
  checkpoint_every : int;
      (** journal appends between actor-state checkpoints (default 32);
          smaller means shorter replays, larger means cheaper appends *)
  faults : Wf_sim.Netsim.fault_config;
      (** network fault injection (drops, duplication, reordering,
          partitions, site crash/restart); protocol
          messages ride the reliable {!Channel} and every actor keeps a
          write-ahead journal, so correctness survives any bounded
          fault load: a restarted site replays each hosted actor from
          its latest checkpoint plus journal suffix and runs the epoch
          handshake (channel Hello, then {!Messages.Recovered} to
          watched peers) *)
  store : Wf_store.Media.Sim.fault_config option;
      (** simulated storage under every actor journal (default [None] =
          perfectly durable in-memory journal).  [Some faults] backs
          each journal with a checksummed framed log over
          [Wf_store.Media.Sim]: appends are serialized through
          {!Actor.codec}, checkpoints sync, and a site crash first
          damages the media per [faults] (torn final frame, lost
          unsynced tail, bit flips, checkpoint corruption — seeded from
          a dedicated stream), so recovery replays only what the
          salvage scan could verify; entries lost with the unsynced
          tail are reconstructed by the {!Messages.Recovered}
          handshake's re-announcements *)
  on_event : occurrence -> unit;
      (** invoked at each occurrence, in order — the hook by which task
          effects (e.g. store updates) attach to significant events *)
  tracer : Wf_obs.Trace.sink option;
      (** structured trace sink (default [None], zero overhead beyond a
          branch).  When set, the network emits send/deliver/drop/crash
          records, the channel retransmit/ack/epoch records, and every
          actor its guard-assimilation outcomes ([Assim] records with
          the evaluated guard's interned id).  Journal replay after a
          crash never re-emits. *)
  flow : Flow.config option;
      (** credit-based flow control and admission control (default
          [None] = the historical unbounded behavior).  [Some cfg]
          bounds every inbound mailbox, credit-gates Data sends, and
          sheds attempts with a seeded-backoff retry when a site's
          local queue depth crosses the watermark; recovery handshake
          traffic takes the priority lane.  See {!Flow}. *)
  arrival : Flow.arrival;
      (** agent attempt arrival process (default {!Flow.Poisson}, the
          historical exponential think time); {!Flow.Burst} fires all
          agents in synchronized batches of the same mean rate — the
          adversarial arrival shape for flow control. *)
}

and occurrence = { lit : Literal.t; seqno : int; time : float }

val default_config : config

type result = {
  trace : occurrence list;  (** in occurrence order *)
  stats : Wf_obs.Metrics.t;
  makespan : float;
  satisfied : bool;  (** every dependency holds on the realized trace *)
  violations : Expr.t list;
  generated : bool option;  (** Definition 4 check, when requested *)
  rejected : Literal.t list;  (** attempts permanently forbidden *)
}

val run : ?config:config -> Workflow_def.t -> result
(** {!build}, {!Ground.start}, {!Ground.close}, then the {!result}. *)

val build :
  ?guard_overrides:(Literal.t * Guard.t) list ->
  config -> Workflow_def.t -> Run_plan.t -> Ground.t
(** A run of the plan, not yet started: the network and channel, one
    journal per actor, the site handlers (a payload names its receiving
    actor's slot) and the restart hook, which crashes each hosted
    actor's journal, recovers the actor from it and runs the
    {!Ground.handshake}.  [guard_overrides] substitutes the synthesized
    guard of the given literals whenever an actor is created, never in
    the shared plan; the model checker's tests plant wrong guards with
    it.  The model checker puts the network in controlled mode before
    {!Ground.start}. *)

val trace_literals : result -> Trace.t

(** {2 The simulated run shell}

    Everything a simulated ground run needs besides its decision
    procedure: the network and channel, journals (each owning its
    simulated medium, so a crash is {!Wf_store.Journal.crash}) and the
    result; arrivals go through {!Ground.arrive}.  {!Central_sched}
    runs on it too. *)

val network :
  config -> Workflow_def.t -> 'm Channel.wire Wf_sim.Netsim.t * 'm Channel.t
(** The simulated network, one site per workflow site, and the reliable
    channel over it. *)

val journal :
  config -> _ Wf_sim.Netsim.t -> ('i, 's) Wf_store.Log.codec ->
  seed:(unit -> int64) -> site:int -> actor:string ->
  ('i, 's) Wf_store.Journal.t
(** A journal that owns a simulated medium when [config.store] is set;
    [seed] is called only then, for the medium's fault stream.  The
    medium counts into the network's stats and traces into
    [config.tracer] as [site]/[actor], so a {!Wf_store.Journal.crash}
    reports its salvage there. *)

val result :
  config -> _ Wf_sim.Netsim.t -> deps:Expr.t list ->
  occurrences:occurrence list -> rejected:Literal.t list -> result
(** The result from occurrences and rejections, both newest first. *)
