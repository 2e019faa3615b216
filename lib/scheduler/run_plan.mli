open Wf_core
open Wf_tasks

(** The spec-invariant part of a ground run, computed once per spec.

    Everything {!Event_sched}, {!Step_sched} and {!Central_sched}
    derive from the workflow's data alone lives here: the compiled
    guards, the symbols that get an actor, each actor's creation
    parameters (site, attributes, both guards, demand automata), the
    owning task instance of every task event, the subscription map,
    each task's {!Agent.spec} and the conjunctions of entailed
    complement guards attempts have asked for.  A run builds only its
    mutable state — actors, journals, agents, queues or network — from
    a plan.

    {!of_workflow} is memoized keyed on the spec's data: the dependency
    expressions, each task's instance, model, site and [parametrize]
    flag, and the attribute overrides — never on the workflow's name or
    physical identity.  The memo is emptied by {!Intern.clear_memos}
    and bypassed while {!Intern.enabled} is [false], like the
    {!Compile} and {!Automaton} memos the plan is built from. *)

type actor = {
  sym : Symbol.t;
  site : int;
  attr : Attribute.t;  (** the positive literal's; the negative is uncontrollable *)
  guard_pos : Guard.t;
  guard_neg : Guard.t;
  demand_automata : Automaton.t list;
      (** automata of the dependencies mentioning the symbol, when it
          is triggerable *)
}

type t

val of_workflow : Workflow_def.t -> (t, string) result
(** Validate the workflow ({!Workflow_def.validate}) and return its
    plan.  Only valid plans are memoized. *)

val compiled : t -> Compile.t

val symbols : t -> Symbol.t list
(** Every symbol with an actor — the dependency alphabet plus all task
    events (unmentioned ones get guard [⊤]) — sorted. *)

val actor : t -> Symbol.t -> actor
(** Raises [Invalid_argument] for a symbol without an actor. *)

val owner : t -> Symbol.t -> string option
(** The task instance whose significant events include the symbol. *)

val subscribers : t -> Symbol.t -> Symbol.Set.t
(** The actors told of the symbol's occurrences: those whose guards of
    either polarity mention it, whose demand automata read it, or whose
    task's transitions may entail a complement whose guard mentions
    it.  Never includes the symbol itself. *)

val guard : t -> Literal.t -> Guard.t
(** The synthesized guard of a literal ([⊤] if no dependency mentions
    it). *)

val agents : t -> Agent.spec list
(** One agent spec per task, in the workflow's task order: the model is
    validated and its unreachable events tabulated once per plan, and a
    run instantiates an agent from each with the task's script. *)

val entailed_guard : t -> Literal.t list -> Guard.t
(** [Guard.conj_all (List.map (guard t) lits)]: the guards of the
    complements an attempt entails ({!Agent.would_make_unreachable}),
    memoized on the plan keyed by the literal list. *)
