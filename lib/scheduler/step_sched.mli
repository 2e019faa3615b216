open Wf_core

(** A step-controllable driver of {!Event_sched}'s transition core
    ({!Ground}) for the exhaustive model checker.

    {!Event_sched} drives the guard actors through the virtual-time
    network: latencies and fault draws pick one interleaving per seed.
    [Step_sched] drives the same actors, agents, journals, recovery and
    closing code, but removes the network entirely.  Protocol messages sit in
    explicit per-(sender, receiver) FIFO queues, agent attempts wait
    until asked for, and every transition — deliver one queued message,
    let one agent attempt its next event, crash-and-recover one site —
    happens only when the caller performs it.  The caller (the checker's
    DFS in [Wf_check.Mc]) thus owns the schedule and can enumerate every
    interleaving, using {!snapshot}/{!restore} to backtrack and
    {!fingerprint} to recognize already-visited states.

    The message model is {e per ordered actor pair} FIFO.  This is
    slightly weaker than the channel layer's per-site-link FIFO (two
    actors co-hosted on one site share a link there), so the checker
    explores a superset of the orderings the simulator can realize: any
    divergence found here that replays on the simulator is real, and a
    clean exhaustive run covers every simulator schedule.

    Crashes are atomic crash-and-recover transitions: the site's hosted
    actors are rebuilt from their journals (checkpoint + muted suffix
    replay, exactly {!Event_sched}'s recovery path) and the epoch
    handshake messages are enqueued.  In-flight messages to the site
    survive in their queues — the channel's retransmission layer
    guarantees delivery past a crash window, so the post-recovery
    delivery is the behaviour being modelled. *)

type t

val build :
  ?checkpoint_every:int ->
  ?guard_overrides:(Literal.t * Guard.t) list ->
  Wf_tasks.Workflow_def.t ->
  t
(** Set up actors, agents and journals from the workflow's
    {!Run_plan} — the plan {!Event_sched} runs from, without the
    network.  [guard_overrides] substitutes the synthesized guard of the
    given literals at actor creation (including recovery), never in the
    shared plan; the test suite uses it to plant a wrong guard and
    watch the checker catch the divergence. *)

(** {2 Transitions} *)

val enabled_attempts : t -> string list
(** Instances whose agent wants to attempt an event now (sorted). *)

val do_attempt : t -> string -> unit
(** Perform the instance's next attempt: controllable events go to the
    owning actor for vetting (with the entailed complements' guards,
    as in {!Event_sched}); uncontrollable ones fire outright, counting
    an {!uncontrollable} violation if the guard objected. *)

val nonempty_queues : t -> (Symbol.t * Symbol.t) list
(** The (sender, receiver) pairs with queued messages, sorted. *)

val queue_head : t -> Symbol.t * Symbol.t -> Messages.t option

val do_deliver : t -> Symbol.t * Symbol.t -> unit
(** Deliver the head message of the pair's queue to the receiving
    actor (journaled, exactly like a channel delivery).
    Raises [Invalid_argument] if the queue is empty. *)

val do_crash : t -> int -> unit
(** Atomically crash and recover the site: bump its epoch, rebuild each
    hosted actor from its journal, enqueue the recovery-handshake
    messages of undecided recovered actors. *)

val do_crash_torn : t -> int -> bool
(** {!do_crash}, preceded by a torn-write probe on every hosted actor:
    the journal's content is re-serialized through {!Actor.codec} onto
    a fresh simulated medium, synced, and an in-flight entry's frame is
    torn at several byte offsets (inside the header, at its last byte,
    inside the payload).  Returns [false] if any placement makes the
    salvage scan keep the wrong frame count or rebuild a state that
    differs ({!Actor.equal_state}) from ordinary journal recovery —
    the crash transition is still performed either way, so exploration
    can continue past the probe. *)

(** {2 Backtracking} *)

type snapshot

val snapshot : t -> snapshot
(** Capture the complete mutable state: actors, agents, journals,
    queues, epochs, occurrence/rejection logs, violation counters. *)

val restore : t -> snapshot -> unit
(** Rewind to a snapshot.  The snapshot stays valid (journals are
    re-copied on each restore), so one snapshot can seed many
    branches. *)

val fingerprint : t -> int
(** Canonical {!Wf_core.Fingerprint} of the explored state — actors (by
    {!Actor.fingerprint}), agents, queues, the occurrence sequence,
    epochs, and violation counters.  Includes the ordered occurrence
    list, so two states merging in the dedup table have realized the
    same trace prefix modulo commuting steps. *)

(** {2 Terminal states} *)

val run_closing : t -> unit
(** Deterministic end-of-run closing, mirroring {!Event_sched.run}'s
    tail: drain all queues and pending attempts in sorted order, then
    alternate complement-emission rounds, parked-attempt rejection
    (lowest symbol first), and negative decisions for leftover symbols
    until every symbol is decided.  Called on a snapshot of each
    maximal interleaving before checking it against the oracle. *)

(** {2 Observations} *)

val trace : t -> Literal.t list
(** Realized occurrences, oldest first. *)

val decided : t -> Symbol.t list
(** The symbols that occurred in either polarity, in symbol order: the
    per-slot flags {!snapshot} captures and {!fingerprint} folds. *)

val rejected : t -> Literal.t list
val forced : t -> int
(** Guard decisions forced through against a [False] verdict (would-be
    violations of non-rejectable events) in the current state. *)

val uncontrollable : t -> int
(** Uncontrollable events that fired while their guard said [False]. *)

val crashes_used : t -> int
val epoch : t -> int -> int
val workflow : t -> Wf_tasks.Workflow_def.t
val compiled : t -> Compile.t
val num_sites : t -> int

val symbols : t -> Symbol.t list
(** Every symbol with an actor (dependency alphabet plus task events),
    sorted. *)

val stats : t -> Wf_obs.Metrics.t
(** Cumulative over the whole exploration (not snapshot-reverted):
    recovery and replay counters land here. *)
