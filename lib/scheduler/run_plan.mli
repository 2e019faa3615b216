open Wf_core
open Wf_tasks

(** The spec-invariant part of a ground run, computed once per spec.

    Everything {!Event_sched} and {!Central_sched} derive from the
    workflow's data alone lives here: the compiled guards, the symbols
    that get an actor, each actor's creation parameters (site,
    attributes, both guards, demand automata), the owning task of every
    task event, the subscription map, each task's {!Agent.spec}
    and the conjunctions of entailed complement guards attempts have
    asked for.  A run builds only its mutable state — actors, journals,
    agents and network — from a plan.

    The plan numbers its actors once: slot [i] is the [i]-th symbol of
    {!symbols}, so slot order is symbol order.  Each {!actor} record
    carries its slot, its owner and its subscribers as slots, and its
    two guards as {!Gtable.cell}s, so a run addresses actors by index
    and looks each guard's table up once per plan, not once per run.

    {!of_workflow} is memoized keyed on the spec's data: the dependency
    expressions, each task's instance, model, site and [parametrize]
    flag, and the attribute overrides — never on the workflow's name,
    so equal specs share a plan.  Before building that key it probes
    the workflow it planned last by physical identity: a run loop that
    plans the same (immutable) workflow value again pays a pointer
    comparison, not a structural hash.  The memo and the probe are
    emptied by {!Intern.clear_memos}
    and bypassed while {!Intern.enabled} is [false], like the
    {!Compile} and {!Automaton} memos the plan is built from. *)

type actor = {
  sym : Symbol.t;
  pos : Literal.t;  (** [Literal.pos sym] *)
  neg : Literal.t;  (** [Literal.neg sym] *)
  index : int;  (** the actor's slot: [sym]'s rank in {!symbols} *)
  site : int;
  attr : Attribute.t;  (** the positive literal's; the negative is uncontrollable *)
  guard_pos : Gtable.cell;  (** the positive literal's guard and its table *)
  guard_neg : Gtable.cell;
  demand_automata : Automaton.t list;
      (** automata of the dependencies mentioning the symbol, when it
          is triggerable *)
  task : int option;
      (** the task whose significant events include the symbol: its
          rank in the workflow's task order, an index into {!tasks} *)
  subscribers : int array;
      (** the slots of the actors told of the symbol's occurrences,
          ascending: those whose guards of either polarity mention it,
          whose demand automata read it, or whose task's transitions may
          entail a complement whose guard mentions it.  Never the
          actor's own slot. *)
  route : Symbol.t -> int;
      (** the slot of the actor a message from this one to the symbol
          goes to: its subscribers and the actors it watches are found
          by a scan of their precomputed hashes, any other symbol by
          {!index}; [Invalid_argument] names a symbol without an actor *)
}

type t

val of_workflow : Workflow_def.t -> (t, string) result
(** Validate the workflow ({!Workflow_def.validate}) and return its
    plan.  Only valid plans are memoized. *)

val compiled : t -> Compile.t

val symbols : t -> Symbol.t list
(** Every symbol with an actor — the dependency alphabet plus all task
    events (unmentioned ones get guard [⊤]) — sorted. *)

val actors : t -> actor array
(** Every actor, by slot. *)

val index : t -> Symbol.t -> int option
(** The symbol's slot, if it has an actor. *)

type task = {
  agent : Agent.spec;
  closes : (Literal.t * int) array;
      (** each of {!Agent.complements}, with the slot of its symbol
          ([-1] if it has no actor): the complements a run's closing
          scan fires, resolved once *)
}

val tasks : t -> task array
(** Every task, in the workflow's task order. *)

val task_order : t -> int array
(** The ranks of the tasks in the order a run starts and closes them:
    the iteration order of a 16-bucket [Hashtbl] keyed by instance,
    computed once. *)

type attempt = {
  lit : Literal.t;  (** the attempted literal *)
  entailed : Guard.t;
      (** the conjoined guards of the complements the attempt entails *)
  vetted : Gtable.cell;
      (** [Guard.conj (guard lit) entailed] and its table: what the
          attempt vets *)
}

val attempt : t -> Literal.t -> task:int -> int -> attempt
(** [attempt t lit ~task mask]: the attempt of [lit] whose transition
    entails the complements of the task's significant events set in
    [mask] ({!Agent.unreachable_mask}; the bits index the task's
    [closes]).  The entailed conjunction is memoized per task keyed by
    the mask, an int, and each attempted literal's vetted guard next to
    it, so a repeated attempt conjoins, interns and hashes nothing. *)
