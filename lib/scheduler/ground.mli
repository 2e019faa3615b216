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
    draining in sorted order.  ['d] is the driver's own state. *)

type occurrence = { lit : Literal.t; seqno : int; time : float }

type jstate = {
  j : (Actor.input, Actor.snapshot) Wf_store.Journal.t;
      (** owns the simulated medium under it, if any *)
  mutable depth : int;
      (** reentrancy depth of {!deliver}: a nested delivery (an actor's
          own fire feeding back as its occurrence) must not checkpoint a
          half-applied state *)
}

type 'd hooks = {
  send :
    'd t -> priority:bool -> src:Symbol.t -> dst:Symbol.t -> Messages.t -> unit;
      (** transport a protocol message between two symbols' actors *)
  kick : 'd t -> Agent.t -> unit;  (** the agent may want to attempt next *)
  now : 'd t -> float;  (** timestamp for occurrences *)
  on_fire : 'd t -> occurrence -> unit;
  emit_assim : 'd t -> Symbol.t -> (Wf_obs.Trace.outcome -> int -> unit) option;
      (** the actor's {!Actor.ctx} assimilation hook *)
  settle : 'd t -> unit;  (** run pending work to quiescence *)
  iter_agents : 'd t -> (Agent.t -> unit) -> unit;
      (** the driver's agent order for closing rounds *)
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
  replay_ctx : Actor.ctx;  (** muted, counting into a registry no run reads *)
  actors : Actor.t Symbol_tbl.t;
  ctxs : Actor.ctx Symbol_tbl.t;
  journals : jstate Symbol_tbl.t;
  agents : (string, Agent.t) Hashtbl.t;
  owners : Agent.t Symbol_tbl.t;  (** each owned plan symbol's agent *)
  msg_counters : Wf_obs.Metrics.counter array;
      (** [msg_<label>] per {!Messages.tag}, resolved once *)
  pending_trigger_complements : Literal.t list Symbol_tbl.t;
  mutable decided : Symbol.Set.t;
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
(** One actor and journal per plan symbol, in sorted order, and one
    agent per task.  [guard_overrides] substitutes guards whenever an
    actor is created, including on recovery. *)

val actor_of : 'd t -> Symbol.t -> Actor.t

val deliver : 'd t -> Actor.t -> Actor.input -> unit
(** Journaled delivery: append (syncing inputs that cannot be
    re-derived after a crash), apply, checkpoint at depth 0. *)

val attempt : 'd t -> Agent.t -> Symbol.t -> Attribute.t -> bool
(** The agent attempts the event: a controllable one goes to its actor
    for vetting together with the guards of the complements it entails;
    an uncontrollable one fires outright.  [true] iff it was
    uncontrollable and its guard said [False]. *)

val replay : 'd t -> Symbol.t -> Actor.snapshot option * Actor.input list -> Actor.t
(** A fresh actor with the checkpoint restored and the suffix applied
    with side effects muted. *)

val recover : 'd t -> Symbol.t -> unit
(** Rebuild the symbol's actor from its journal ({!replay}). *)

val hosted : 'd t -> int -> Symbol.t list
(** The site's symbols, sorted. *)

val handshake : 'd t -> epoch:int -> Symbol.t list -> unit
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
