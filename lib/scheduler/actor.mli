open Wf_core
open Wf_tasks

(** Event actors: "we instantiate an active entity or actor for each
    event type.  Each actor maintains the current guard for its event
    and manages its communications" (Section 2).

    One actor governs both polarities of its symbol.  Attempts whose
    guard is [Unknown] are parked and pursued via the protocols of
    Section 4.3:

    - {e Promises.}  When a parked product's single remaining
      requirement is [◇x], the actor sends a promise request to [x]'s
      actor, offering its own eventuality.  The grantee accepts iff its
      own guard becomes [True] under the offered promises (it then fires
      immediately, discharging its obligation); this implements the
      conditional-promise consensus of Example 11.  Requests are made
      only when the promise is the last missing piece, which keeps
      offers credible.

    - {e Reservations.}  A [¬f]-style constraint needs agreement that
      [f] has not occurred.  The actor asks [f]'s actor to reserve the
      symbol; while granted, [f] defers its own occurrence, so the
      holder may fire soundly and then release.  Reservations are
      acquired in increasing symbol order and granted only to
      lower-ordered requesters (or when the grantee has nothing parked),
      which precludes the pairwise deadlocks; any pathological residue
      is resolved by the driver's end-of-run closing.

    - {e Triggering.}  A triggerable event's actor tracks the residual
      automata of the dependencies mentioning it and self-attempts once
      its event is required on every accepting path ("the scheduler
      causes the events to occur when necessary", Example 4). *)

type meters
(** Every counter an actor bumps ([parked_evaluations],
    [promise_requests], [reservations_denied], [trigger_faults], ...),
    resolved on a registry once ({!Wf_obs.Metrics.counter}, from keys
    taken at module initialisation): like [incr], a counter appears in
    the registry on its first bump. *)

val meters : Wf_obs.Metrics.t -> meters

type ctx = {
  send : int -> Messages.t -> unit;
      (** send a protocol message to the actor of a plan slot (the
          actor's [route] names it) *)
  fire : Literal.t -> unit;
      (** commit an occurrence: the runtime stamps it, informs the
          agent, and announces it to subscribers *)
  reject : Literal.t -> unit;  (** permanently forbid an attempt *)
  trigger_task : Literal.t -> bool;
      (** cause the event in the owning task; false on a trigger fault *)
  meters : meters;
      (** where the actor counts; one [meters stats] per registry can be
          shared by every context on it *)
  emit_assim : (Wf_obs.Trace.outcome -> int -> unit) option;
      (** trace hook, called with the assimilation outcome and the
          evaluated guard's {!Wf_core.Guard.uid} at every guard
          decision; [None] disables emission at the cost of one branch *)
}

type t

val create :
  sym:Symbol.t ->
  site:int ->
  route:(Symbol.t -> int) ->
  guard_pos:Gtable.cell ->
  guard_neg:Gtable.cell ->
  attr_pos:Attribute.t ->
  attr_neg:Attribute.t ->
  ?demand_automata:Automaton.t list ->
  unit ->
  t
(** [route] gives the slot {!ctx.send} takes for a symbol the actor
    sends to ({!Run_plan.actor}'s).
    The guards come with their tables ({!Gtable.cell}): a run plan
    hands every run's actor the same cells, so a table is looked up
    once per plan.  Decisions on a compiled table read a view of the
    actor's knowledge and reservations per parked attempt, built on the
    first decision and then stepped by each input that changes either
    ({!Gtable.step_view}). *)

val decided : t -> Literal.polarity option
val parked_count : t -> int
val knowledge : t -> Knowledge.t

(** {2 Inputs and crash recovery}

    Every input enters through {!apply}, the one entry point, so the
    runtime can journal it first.  The actor's state evolution is a
    deterministic function of its input sequence, so a write-ahead
    journal of {!input}s plus periodic {!snapshot}s suffices to
    reconstruct the exact pre-crash state: restore the latest snapshot
    into a fresh actor and {!apply} the journal suffix under
    {!muted_ctx} (the pre-crash incarnation already performed the side
    effects). *)

type input =
  | I_attempt of { pol : Literal.polarity; entailed : Guard.t }
      (** The agent attempts the event (controllable path).  [entailed]
          is the conjunction of the guards of the complements the
          event's transition entails (events it makes unreachable); it
          is vetted together with the event's own guard. *)
  | I_occurred of { lit : Literal.t; seqno : int }
      (** An occurrence announcement reached this actor (possibly its
          own event's): assimilate it and re-evaluate parked work. *)
  | I_message of Messages.t  (** A protocol message from a peer actor. *)
  | I_close
      (** The end of the run: reject whatever is still parked. *)

val apply : ?vetted:Gtable.cell -> ctx -> t -> input -> unit
(** Process one input.  [vetted], read only by an [I_attempt], is the
    guard the attempt vets — the actor's own guard of the polarity
    conjoined with [entailed] — with its table, when the caller already
    holds it; without it the actor conjoins the two and looks the table
    up.  A wrong [vetted] is not detected. *)

val muted_ctx : Wf_obs.Metrics.t -> ctx
(** A context whose effects are no-ops (and whose trigger always
    succeeds), for journal replay.  Pass a scratch {!Wf_obs.Metrics.t}
    so replay does not double-count the live run's counters; the trace
    hook is off so replayed decisions are not re-traced. *)

type snapshot

val snapshot : t -> snapshot
(** Capture every mutable field.  Immutable configuration (guards,
    attributes, demand automata) is re-derived from the spec on
    recovery, not journaled.  Only call at a transition boundary —
    never from within a [ctx] callback. *)

val restore : t -> snapshot -> unit

val equal_state : t -> t -> bool
(** Field-by-field equality of the mutable state (parked attempts
    compare by polarity, trigger provenance, and guard); the recovery
    property suite checks [checkpoint + replay(suffix)] against the
    pre-crash actor with this. *)

val fingerprint : t -> int
(** Canonical {!Wf_core.Fingerprint} of the mutable state, for the
    model checker's visited-state dedup.  Parked guards contribute
    their interned {!Wf_core.Guard.uid} (dense, order-robust), so the
    hash is O(state size) with O(1) per guard.  Two actors with
    {!equal_state} have equal fingerprints. *)

val watched_symbols : t -> Symbol.Set.t
(** Symbols (other than the actor's own) whose actors this one
    observes: everything mentioned by its guards or parked attempts.
    The recovery handshake sends {!Messages.Recovered} to these. *)

val codec : (input, snapshot) Wf_store.Log.codec
(** Binary codec for the actor's durable journal: inputs as entries,
    snapshots as checkpoints.  Decoding goes through the public
    constructors (see {!Wire}), so a decoded snapshot restores into a
    fresh actor byte-for-byte equivalently to the original
    ({!equal_state} holds after replay). *)

(** {2 Test hooks} *)

module For_testing : sig
  val waiters : t -> Literal.t list
  (** Reservation requesters queued behind the current holder, in
      arrival order.  Enqueue and dequeue are O(1) (two-list FIFO);
      exposed for the waiter-ordering regression test. *)
end
