open Wf_core

(** Fleet execution engine: one parametrized spec, 10^5..10^6 bindings.

    Behaviorally a drop-in for {!Param_sched} on {e fleet-eligible}
    specs — same outcomes, same occurred sequences, same seqnos, same
    journal/recover contract — but per-binding guard state lives in a
    segmented {!Arena} of int words (one event-fate word per (binding,
    event base), one compiled-table state per (binding, guard)) indexed
    by a dense binding interner, instead of per-instance symbolic
    knowledge and memoized per-instance guard tables.  The occurrence
    log and the token table are append-only {!Arena.Vec}s: growth never
    copies what is already stored.

    {b Eligibility} ({!eligible}): every dependency has exactly one
    distinct variable and every atom's parameters are all variables
    (arity >= 1), with base arities consistent across dependencies.
    Then every symbol of an instantiated guard carries the binding's
    own token, so bindings are independent: an occurrence for binding
    [i] cannot change a verdict of binding [j <> i], and the engine
    dispatches attempts, occurrences, and parked retries per binding.

    {b Per-state verdicts}: a decision on a table-compiled guard reads
    the binding's table state.  A decisive state answers directly; an
    [Open] state's verdict is evaluated symbolically once, by the first
    binding that reaches it, and cached per (guard, state).  This is
    exact because every undecided symbol of a fleet binding is reserved
    (only this engine decides it), so the verdict depends on the
    residual guard alone.  [fleet_symbolic_evals] therefore never
    exceeds {!table_states}, however many bindings run.

    {b Symbolic fallback}: guards whose compiled table exceeds the
    {!Gtable} bound (or with tables globally off) are evaluated
    symbolically per decision, on a knowledge rebuilt over the
    template's marked alphabet from the binding's fate words —
    verdict-equal to Param_sched's instantiated evaluation under the
    renaming [?x → token]. *)

type outcome = Param_sched.outcome =
  | Accepted
  | Parked
  | Rejected
  | Already
  | Busy of { retry_after : float }

type t

val eligible : Ptemplate.t list -> bool
(** Can this spec run on the fleet engine?  See the module preamble. *)

val create :
  ?checkpoint_every:int ->
  ?store:Wf_store.Media.Sim.fault_config ->
  ?store_seed:int64 ->
  ?flow:Flow.config ->
  Ptemplate.t list ->
  t
(** Same contract as {!Param_sched.create}, plus: raises
    [Invalid_argument] when the spec is not {!eligible}.
    [checkpoint_every] defaults to 1024.  An in-memory checkpoint
    shares the segments of the engine's append-only token and
    occurrence logs (copying one directory word per segment) and
    copies only the parked fates: one read-only scan of the fate
    columns, no per-binding allocation.  With a [store] the checkpoint
    is also encoded as one durable frame of tokens and logs (no arena),
    which is O(bindings); drivers running 10^6 bindings against a store
    should raise the cadence to amortize it. *)

val set_tracer : t -> Wf_obs.Trace.sink option -> unit

val attempt : t -> Symbol.t -> outcome
(** Attempt a ground positive event token; mirrors
    {!Param_sched.attempt} outcome-for-outcome on eligible specs.
    Symbols that match no template atom (unknown base, arity mismatch,
    mixed-argument tuples) are vacuously enabled and recorded off-spec,
    like the symbolic engine's empty-verdict path. *)

val occurred : t -> Literal.t -> unit

val parked : t -> Symbol.t list
(** Parked attempts, newest first — Param_sched's order.  O(bindings ×
    bases) scan: this is a debugging/conformance query; drivers should
    read {!parked_count}. *)

val parked_count : t -> int
(** Size of the parked backlog, O(1). *)

val trace : t -> Trace.t
(** Realized trace in occurrence order, rebuilt from the packed log. *)

val knowledge : t -> Knowledge.t
(** The full knowledge an equivalent Param_sched would hold —
    O(occurrences); for conformance tests, not the hot path. *)

val decided : t -> Symbol.t -> bool
(** Has this ground symbol occurred (either polarity)?  O(1). *)

val bindings : t -> int
(** Distinct parameter bindings interned so far. *)

val guard_templates : t -> (int * Ptemplate.atom * Guard.t) list

val stats : t -> Wf_obs.Metrics.t
(** [fleet_*] counters (attempts, occurred, table steps, symbolic
    evaluations, parked peak) plus the admission controller's [flow_*]
    metrics when created with a [flow] config.  [fleet_symbolic_evals]
    counts every {!Knowledge.status} call: per-state verdict fills on
    compiled guards, every decision on uncompiled ones. *)

val table_states : t -> int
(** States of the compiled tables over all positive guard slots: the
    bound on [fleet_symbolic_evals] when every guard has a table. *)

val audit_open_verdicts : t -> int * int
(** [(checked, mismatches)] over every (binding, compiled guard) whose
    table state is [Open]: the cached per-state verdict the decisions
    read (filled on a miss, counted) against a fresh symbolic evaluation
    of that binding (uncounted).  O(bindings × guards); for tests. *)

val work : t -> int
(** Cumulative decision evaluations, Param_sched's unit of work. *)

val state_words : t -> int
(** Words held by the flat per-binding state (arena, occurrence log,
    token table and interner, whole segments included) — the bench's
    bytes-per-instance numerator for the engine's own structures. *)

val recover : t -> t
(** Crash and rebuild from the journal: same contract as
    {!Param_sched.recover}.  The checkpoint is restored by replaying its
    occurrence log into a fresh arena (table steps are not counted
    again) and overlaying the parked fates; the input suffix is then
    replayed silently.  The recovered engine keeps the checkpoint's
    full log segments shared and copies the partial last ones, so it
    never writes where the crashed engine, or another engine recovered
    from the same checkpoint, can. *)

val last_salvage : t -> Wf_store.Log.salvage_report option

val equal_state : t -> t -> bool
(** Field-by-field equality of the mutable engine state (interner,
    arena, occurrence and off-spec logs, counters). *)
