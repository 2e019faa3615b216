open Wf_core
(** Task agents: the interface between tasks and the scheduling system.

    An agent wraps a task-model instance.  It "informs the system of
    uncontrollable events like abort and requests permission for
    controllable ones like commit.  When triggered by the system, it
    causes appropriate events like start in the task" (Section 2).

    The agent follows a {e script} — the task's own will, opaque to the
    scheduler — and additionally announces {e complement} events: when a
    transition makes a significant event unreachable (e.g. committing
    makes [abort] impossible), the complements of the newly impossible
    events have occurred in the sense of the algebra.

    Agents of looping tasks parametrize each occurrence with the
    occurrence count ([b_T1(1)], [b_T1(2)], …), the event-token scheme
    of Section 5.1 ("each agent can maintain a counter for each event
    and increment it whenever it attempts an event"). *)

type script = {
  steps : string list;  (** significant events to attempt, in order *)
  on_reject : string -> string option;
      (** fallback event after a rejection, e.g. [commit ↦ abort] *)
  repeat : int;  (** how many times to run [steps] (loops) *)
}

val straight_line : string list -> script
(** Attempt the listed events once, give up on rejection. *)

val transactional : unit -> script
(** [start] then [commit]; a rejected [commit] falls back to [abort]. *)

val aborting : unit -> script
(** [start] then [abort] — failure injection. *)

val looping : int -> script
(** [enter]/[exit] repeated the given number of times (Example 13). *)

type spec
(** The immutable part of an agent, built once per task and shared by
    every agent instantiated from it (a run plan holds one per task).
    It numbers the model's states and events once and tabulates, per
    state, the transitions (event number -> next state) and the
    significant events unreachable from it, as a bitmask and as a list
    in model order; per significant event, its symbol and (unless
    parametrizing) its complement literal.  An agent then holds its
    state as a number and the significant events that occurred as a
    mask, so {!want}, {!would_make_unreachable}, {!on_accepted},
    {!finished} and {!occurred_mask} read arrays: they build no symbol
    or literal and compare no event names. *)

val spec :
  instance:string ->
  model:Task_model.t ->
  ?parametrize:bool ->
  ?canonical:(Symbol.t -> Symbol.t) ->
  unit ->
  spec
(** Validate the model ({!Task_model.validate}; [Invalid_argument] if it
    is invalid, or if it has more significant events than an [int] has
    bits, [Sys.int_size]) and tabulate it.  [canonical] (default the
    identity) picks the value each significant event's symbol is
    represented by — an equal symbol the caller already holds, so its
    agents hand back symbols the caller compares by address, and a
    symbol the caller passes back is resolved by address too. *)

val complements : spec -> Literal.t array
(** The complement of each significant event, in model order: what a
    run's closing scan draws from.  Empty for parametrizing agents. *)

type t

val instantiate : spec -> script:script -> t
(** A fresh agent in the model's initial state, following the script. *)

val create :
  instance:string ->
  model:Task_model.t ->
  script:script ->
  ?parametrize:bool ->
  unit ->
  t
(** [instantiate (spec ~instance ~model ?parametrize ()) ~script]. *)

val instance : t -> string
val awaiting : t -> Symbol.t option

val want : t -> (Symbol.t * Attribute.t) option
(** The event the task wishes to attempt next, if it is not already
    awaiting a decision and the script has more to do.  The returned
    event is enabled in the current task state. *)

val begin_attempt : t -> Symbol.t -> unit

val would_make_unreachable : t -> Symbol.t -> Literal.t list
(** The complements that accepting the event now would entail (the
    significant events its transition makes unreachable), without
    advancing the task.  The scheduler vets these complements' guards
    together with the event's own guard. *)

val unreachable_mask : t -> Symbol.t -> int
(** The same complements as a mask, bit [i] for the [i]-th of
    {!complements} (bits ascend in model order): a function of the task
    state that keys what a scheduler derives from the list. *)

val on_accepted : t -> Symbol.t -> Literal.t list
(** The attempted (or triggered) event occurred: advance the task state
    and return the complements of significant events that have just
    become unreachable — the agent announces these to the system. *)

val on_rejected : t -> Symbol.t -> unit
(** The attempted event was permanently forbidden: consult the script's
    fallback. *)

val trigger : t -> Symbol.t -> Literal.t list option
(** The scheduler proactively causes the event.  [None] if the event is
    not enabled in the current state (a trigger fault). *)

val finished : t -> bool
(** Script exhausted and no decision pending. *)

val occurred_mask : t -> int
(** The significant events that occurred, bit [i] for the [i]-th of
    {!complements}: at end of run, the complements whose bit is clear
    close the trace into a maximal one (parametrizing agents have none;
    their unseen instances are handled by quantification).  A closing
    scan takes the mask once, before it fires anything. *)

(** {2 Model-checker support} *)

val fingerprint : t -> int
(** Canonical {!Wf_core.Fingerprint} of the mutable state (occurrence
    counts are order-canonicalized), for visited-state dedup.  It
    hashes the state's and events' names, not their numbers. *)

(** {2 Test hooks} *)

module For_testing : sig
  val undecided_complements : t -> Literal.t list
  (** The complements of significant events that never occurred, in
      model order: what a closing scan over {!complements} with
      {!occurred_mask} fires. *)
end
