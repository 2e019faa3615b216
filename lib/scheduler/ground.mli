open Wf_core
open Wf_tasks

(** The ground transition core of {!Event_sched}.

    The state and transitions of a ground run: journaled delivery,
    occurrence, rejection, triggering, agent arrivals and attempts,
    crash recovery and the deterministic end-of-run closing.  Messages
    travel through the reliable {!Channel} over the run's
    {!Wf_sim.Netsim}, and attempts arrive through the network's timed
    actions, so whoever drives the network drives the run: the latency
    model in a simulation, a chooser in controlled mode when the model
    checker ([Wf_check.Mc]) enumerates schedules.

    A run addresses its actors by plan slot ({!Run_plan.actor}'s
    [index]): one {!slot} per plan symbol holds everything the run keeps
    for it, so delivering, firing, announcing and the closing scans read
    arrays.  An actor names the destination of its message by slot,
    through its plan actor's [route], and an agent's event is found by
    address among its task's [closes]. *)

type occurrence = { lit : Literal.t; seqno : int; time : float }

type jstate = {
  j : (Actor.input, Actor.snapshot) Wf_store.Journal.t;
      (** owns the simulated medium under it, if any *)
  mutable depth : int;
      (** reentrancy depth of {!deliver}: a nested delivery (an actor's
          own fire feeding back as its occurrence) must not checkpoint a
          half-applied state *)
}

type slot = {
  index : int;  (** the plan slot: [sym]'s rank in {!Run_plan.symbols} *)
  sym : Symbol.t;
  site : int;
  plan_actor : Run_plan.actor;
  mutable actor : Actor.t;  (** replaced by recovery *)
  mutable ctx : Actor.ctx;  (** the live context, closing over the slot *)
  journal : jstate;
  task : task option;  (** the task whose significant events include it *)
  vets : bool;
      (** no guard override replaced the positive guard, so an attempt
          vets the plan's {!Run_plan.attempt} guard *)
  mutable decided : bool;  (** the symbol occurred, in either polarity *)
  mutable pending_complements : Literal.t list option;
      (** complements a trigger already advanced the agent past, for the
          occurrence to emit *)
  mutable parked : int;
      (** the actor's {!Actor.parked_count}, recounted after each
          {!deliver} and {!recover} *)
}

and task = {
  rank : int;  (** the task's rank in the workflow's task order *)
  agent : Agent.t;
  closes : (Literal.t * int) array;
      (** {!Run_plan.task}'s: the complement of each significant event
          and its slot, in model order.  The agent names its events by
          these slots' own symbols ({!Agent.spec}'s [canonical]), so a
          complement it returns finds its slot by address *)
}

type payload = int * int * Messages.t
(** A protocol message on the wire: the sending and receiving actors'
    slots, and the message. *)

type t = {
  plan : Run_plan.t;
  net : payload Channel.wire Wf_sim.Netsim.t;
  chan : payload Channel.t;
  arrival : Flow.arrival;
  think_time : float;  (** mean delay between an agent's attempts *)
  max_steps : int;  (** per settling run of the network *)
  on_event : occurrence -> unit;  (** called at each occurrence *)
  guard_overrides : (Literal.t * Guard.t) list;
  stats : Wf_obs.Metrics.t;  (** the network's *)
  meters : Actor.meters;  (** resolved on [stats], shared by every ctx *)
  occurrences_counter : Wf_obs.Metrics.counter;
  attempts_counter : Wf_obs.Metrics.counter;
  rejections_counter : Wf_obs.Metrics.counter;
  violations_counter : Wf_obs.Metrics.counter;
      (** [uncontrollable_violations] *)
  recoveries_counter : Wf_obs.Metrics.counter;  (** [actor_recoveries] *)
  replayed_counter : Wf_obs.Metrics.counter;  (** [replayed_entries] *)
  replay_ctx : Actor.ctx;  (** muted, counting into a registry no run reads *)
  slots : slot array;  (** by plan slot *)
  tasks : task array;  (** in the workflow's task order *)
  task_order : int array;
      (** the order {!start} and {!close} visit the tasks
          ({!Run_plan.task_order}) *)
  msg_counters : Wf_obs.Metrics.counter array;
      (** [msg_<label>] per {!Messages.tag}, resolved once *)
  mutable seqno : int;
  mutable occurrences : occurrence list;  (** newest first *)
  mutable rejected : Literal.t list;  (** newest first *)
  mutable parked_slots : int;
      (** the slots whose [parked] is positive: {!close} stops looking
          for a parked attempt to reject once it is 0 *)
}

val create :
  ?guard_overrides:(Literal.t * Guard.t) list ->
  net:payload Channel.wire Wf_sim.Netsim.t ->
  chan:payload Channel.t ->
  journal:(Run_plan.actor -> jstate) ->
  arrival:Flow.arrival ->
  think_time:float ->
  max_steps:int ->
  on_event:(occurrence -> unit) ->
  Workflow_def.t ->
  Run_plan.t ->
  t
(** One slot (actor, context and journal) per plan symbol, in slot
    order, and one agent per task, counting into the network's stats
    and tracing into its sink.  [guard_overrides] substitutes guards
    whenever an actor is created, including on recovery. *)

val start : t -> unit
(** Every agent that wants to attempt an event commits to it, and the
    attempt arrives after the think time ({!arrive}, labeled with the
    event's slot). *)

val arrive :
  Flow.arrival -> think_time:float -> _ Wf_sim.Netsim.t -> _ Channel.t ->
  site:int -> ?depth_site:int -> ?label:int -> Symbol.t -> (unit -> unit) ->
  unit
(** Run an attempt after the think time, through the admission gate at
    [site] keyed on [depth_site]'s queue depth (default [site]'s).
    [label] names the arrival to a chooser ({!Wf_sim.Netsim.schedule}). *)

val deliver : ?vetted:Gtable.cell -> t -> slot -> Actor.input -> unit
(** Journaled delivery: append (syncing inputs that cannot be
    re-derived after a crash), apply ({!Actor.apply}, with [vetted]),
    recount the slot's parked attempts, checkpoint at depth 0. *)

val replay : t -> slot -> Actor.snapshot option * Actor.input list -> Actor.t
(** A fresh actor with the checkpoint restored and the suffix applied
    with side effects muted. *)

val recover : t -> slot -> unit
(** Rebuild the slot's actor from its journal ({!replay}). *)

val hosted : t -> int -> slot list
(** The site's slots, in slot order. *)

val handshake : t -> epoch:int -> slot list -> unit
(** After recovering these actors: each undecided one pings the watched
    peers whose fate it does not know with {!Messages.Recovered}, on the
    priority lane; a decided peer re-announces. *)

val closing :
  settle:(unit -> unit) ->
  complements:(unit -> bool) ->
  reject_lowest:(unit -> bool) ->
  negate_lowest:(unit -> bool) ->
  unit
(** The closing protocol, once the engine has settled: alternate
    complement emission (events that can no longer occur) with
    settling; reject parked attempts one at a time, lowest first; then
    decide leftover symbols negatively so the trace is maximal.  The
    phase order and round budgets live here; the engine supplies the
    steps, each returning whether it acted. *)

val close : t -> unit
(** Run the network to quiescence, then {!closing} over the actors,
    settling the same way: complements of finished agents' events
    whose actors hold no parked attempt (a scan of each task's
    [closes] against the agent's {!Agent.occurred_mask}, taken once per
    task and round), [I_close] to the lowest symbol
    with a parked attempt, and the negation of the lowest undecided
    symbol. *)
