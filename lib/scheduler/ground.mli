open Wf_core
open Wf_tasks

(** The ground transition core shared by {!Event_sched} and
    {!Step_sched}.

    Both drive the same guard actors, agents and journals built from one
    {!Run_plan}; they differ only in how messages travel and who decides
    what happens next.  This module holds the state and transitions
    they share — journaled delivery, occurrence, rejection, triggering,
    attempts, crash recovery and the deterministic end-of-run closing —
    and takes the rest from the driver's {!hooks}: [Event_sched] routes
    messages through the channel and settles by running the simulated
    network; [Step_sched] queues them per actor pair and settles by
    draining in sorted order.  ['d] is the driver's own state.

    A run addresses its actors by plan slot ({!Run_plan.actor}'s
    [index]): one {!slot} per plan symbol holds everything the run keeps
    for it, so delivering, firing, announcing and the closing scans read
    arrays, and only a symbol named inside a message or returned by an
    agent is looked up in the plan's index. *)

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
}

and task = {
  agent : Agent.t;
  mutable events : slot list;
      (** the slots of its significant events, in slot order; the
          agent names them by these slots' own symbols
          ({!Agent.spec}'s [canonical]), so a complement it returns
          finds its slot by address *)
}

type 'd hooks = {
  send : 'd t -> priority:bool -> src:slot -> dst:slot -> Messages.t -> unit;
      (** transport a protocol message between two actors *)
  kick : 'd t -> Agent.t -> unit;  (** the agent may want to attempt next *)
  now : 'd t -> float;  (** timestamp for occurrences *)
  on_fire : 'd t -> occurrence -> unit;
  emit_assim : 'd t -> slot -> (Wf_obs.Trace.outcome -> int -> unit) option;
      (** the actor's {!Actor.ctx} assimilation hook *)
  settle : 'd t -> unit;  (** run pending work to quiescence *)
  iter_tasks : 'd t -> (task -> unit) -> unit;
      (** the driver's task order for closing rounds *)
}

and 'd t = {
  plan : Run_plan.t;
  hooks : 'd hooks;
  driver : 'd;
  guard_overrides : (Literal.t * Guard.t) list;
  stats : Wf_obs.Metrics.t;
  meters : Actor.meters;  (** resolved on [stats], shared by every ctx *)
  occurrences_counter : Wf_obs.Metrics.counter;
  attempts_counter : Wf_obs.Metrics.counter;
  rejections_counter : Wf_obs.Metrics.counter;
  replay_ctx : Actor.ctx;  (** muted, counting into a registry no run reads *)
  slots : slot array;  (** by plan slot *)
  tasks : (string, task) Hashtbl.t;  (** by instance *)
  msg_counters : Wf_obs.Metrics.counter array;
      (** [msg_<label>] per {!Messages.tag}, resolved once *)
  mutable seqno : int;
  mutable occurrences : occurrence list;  (** newest first *)
  mutable rejected : Literal.t list;  (** newest first *)
}

val create :
  ?guard_overrides:(Literal.t * Guard.t) list ->
  stats:Wf_obs.Metrics.t ->
  journal:(Run_plan.actor -> jstate) ->
  hooks:'d hooks ->
  driver:'d ->
  Workflow_def.t ->
  Run_plan.t ->
  'd t
(** One slot (actor, context and journal) per plan symbol, in slot
    order, and one agent per task.  [guard_overrides] substitutes guards
    whenever an actor is created, including on recovery. *)

val slot_of : 'd t -> Symbol.t -> slot
(** Raises [Invalid_argument] naming a symbol without an actor. *)

val deliver : ?vetted:Gtable.cell -> slot -> Actor.input -> unit
(** Journaled delivery: append (syncing inputs that cannot be
    re-derived after a crash), apply ({!Actor.apply}, with [vetted]),
    checkpoint at depth 0. *)

val attempt : 'd t -> Agent.t -> slot -> Attribute.t -> bool
(** The agent attempts the event: a controllable one goes to its actor
    for vetting together with the guards of the complements it entails;
    an uncontrollable one fires outright.  [true] iff it was
    uncontrollable and its guard said [False]. *)

val replay : 'd t -> slot -> Actor.snapshot option * Actor.input list -> Actor.t
(** A fresh actor with the checkpoint restored and the suffix applied
    with side effects muted. *)

val recover : 'd t -> slot -> unit
(** Rebuild the slot's actor from its journal ({!replay}). *)

val hosted : 'd t -> int -> slot list
(** The site's slots, in slot order. *)

val handshake : 'd t -> epoch:int -> slot list -> unit
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

val close : 'd t -> unit
(** {!closing} over the actors: complements of finished agents' events
    whose actors hold no parked attempt, [I_close] to the lowest symbol
    with a parked attempt, and the negation of the lowest undecided
    symbol. *)
