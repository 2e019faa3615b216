open Wf_core
(** Coarse task descriptions: the state machines of Figure 1.

    An agent "embodies a coarse description of the task, including only
    states and transitions (or events) that are significant for
    coordination" (Section 2).  A model names its states and the
    significant events labelling transitions; each significant event has
    a symbol prefix (e.g. [commit ↦ c], so task [buy]'s commit is
    [c_buy]) and attributes.

    Models may contain loops (Section 5.2: "an agent may have arbitrary
    loops and branches"); {!unreachable_events} supports the agent's
    duty of announcing complements once an event can no longer occur. *)

type transition = { from_state : string; event : string; to_state : string }

type t = {
  name : string;
  init : string;
  states : string list;
  transitions : transition list;
  significant : (string * string * Attribute.t) list;
      (** (event, symbol prefix, attributes) *)
  terminal : string list;
}

val validate : t -> (unit, string) result
(** States and events are consistent; the initial state exists; every
    significant event labels some transition; no significant event is
    listed twice, and no two share a symbol prefix (so each symbol
    names one event). *)

val symbol_of_event : t -> instance:string -> string -> Symbol.t
(** [symbol_of_event m ~instance:"buy" "commit"] is [c_buy].  With a
    parametrized instance name of the form ["buy(42)"], produces the
    ground parametrized symbol [c_buy(42)]. *)

val event_of_symbol : t -> instance:string -> Symbol.t -> string option

val attribute : t -> string -> Attribute.t
(** Attribute of a significant event (default if unlisted). *)

val next_state : t -> string -> string -> string option
(** [next_state m state event]. *)

val unreachable_events : t -> string -> string list
(** Significant events that can no longer occur from the given state —
    their complements have effectively occurred. *)

(** {1 The models of Figure 1} *)

val typical_application : t
(** [initial --start--> executing --finish--> done]. *)

val transaction : t
(** [start]; then [commit] or [abort]. *)

val rda_transaction : t
(** [start]; optional [precommit]; [commit] from prepared;
    [abort] from active or prepared — the RDA transaction of Figure 1. *)

val compensatable_transaction : t
(** A transaction that always commits, used for [book]/[cancel]-style
    steps in Example 4 ("for simplicity, assume that book and cancel
    always commit"). *)

val loop_task : t
(** [idle --enter--> critical --exit--> idle], unboundedly (Example 13);
    significant symbols [b] (enter) and [e] (exit). *)

(** {2 Test hooks} *)

module For_testing : sig
  val enabled : t -> string -> string list
  (** Events with a transition out of the given state. *)

  val reachable_events : t -> string -> string list
  (** Events that can still occur in some future of the given state. *)
end
