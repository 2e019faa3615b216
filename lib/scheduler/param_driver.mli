open Wf_core
open Wf_tasks

(** Driver for parametrized workflows (Section 5): runs the agents of a
    {!Wf_tasks.Workflow_def} whose dependencies are templates against
    a parametrized engine, interleaving attempts with a seeded RNG
    and retrying parked tokens as knowledge grows. *)

type result = {
  trace : Trace.t;
  attempts : int;
  parked_final : Symbol.t list;
  finished : bool;  (** every agent ran its script to completion *)
}

val run :
  ?seed:int64 ->
  ?max_steps:int ->
  ?crash_every:int ->
  ?tracer:Wf_obs.Trace.sink ->
  ?flow:Flow.config ->
  ?engine:(module Param_engine.S) ->
  templates:Ptemplate.t list ->
  Workflow_def.t ->
  result
(** [crash_every:k] crashes the engine after every [k]-th attempt and
    rebuilds it from its write-ahead journal ({!Param_engine.S.recover});
    replay determinism makes the run indistinguishable from an
    uncrashed one.  [tracer] attaches a structured trace sink to the
    engine ({!Param_engine.S.set_tracer}); it survives the injected
    crashes.  [flow] enables the engine's admission control: attempts
    shed with [Busy] are re-submitted when the agent is next
    scheduled, and probe admission guarantees they eventually land.
    [engine] (default {!Param_sched}) selects the parametrized engine:
    [(module Fleet)] runs the arena-backed engine instead — behaviorally
    identical on fleet-eligible specs, raises [Invalid_argument]
    otherwise ({!Fleet.eligible}). *)
