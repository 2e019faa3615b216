open Wf_core

(** Fleet execution engine: one parametrized spec, 10^5..10^6 bindings.

    Behaviorally a drop-in for {!Param_sched} on {e fleet-eligible}
    specs — same outcomes, same occurred sequences, same seqnos, and
    the same {!Param_engine} shell for journal, admission and
    recovery — but per-binding guard state lives in a
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

type outcome = Param_engine.outcome =
  | Accepted
  | Parked
  | Rejected
  | Already
  | Busy of { retry_after : float }

include Param_engine.S
(** {!create} raises [Invalid_argument] when the spec is not
    {!eligible}; [checkpoint_every] defaults to 1024.  An in-memory
    checkpoint shares the segments of the engine's append-only token
    and occurrence logs (copying one directory word per segment) and
    copies only the parked fates, read from a park log of the fates
    parked at the previous checkpoint and those parked since: no scan
    of the fate columns, no per-binding allocation.  With a [store]
    the checkpoint is also encoded as one durable frame of tokens and
    logs (no arena), which is O(bindings); drivers running 10^6
    bindings against a store should raise the cadence to amortize it.
    {!recover} restores the checkpoint by replaying its occurrence log
    into a fresh arena (table steps are not counted again) and
    overlaying the parked fates; the recovered engine keeps the
    checkpoint's full log segments shared and copies the partial last
    ones, so it never writes where the crashed engine, or another
    engine recovered from the same checkpoint, can.  {!parked} sorts
    the park log (O(parked log)); {!trace} and {!knowledge} rebuild
    from the packed log (O(occurrences)): conformance queries, not the
    hot path.  Once 2^31 bindings are interned, an input naming a new
    one raises [Invalid_argument]: binding ids are 31 bits.  {!stats}
    holds the [fleet_*] counters (attempts, occurred, table steps,
    symbolic evaluations, parked peak); [fleet_symbolic_evals] counts
    every {!Knowledge.status} call: per-state verdict fills on
    compiled guards, every decision on uncompiled ones. *)

val eligible : Ptemplate.t list -> bool
(** Can this spec run on the fleet engine?  See the module preamble. *)

val table_states : t -> int
(** States of the compiled tables over all positive guard slots: the
    bound on [fleet_symbolic_evals] when every guard has a table. *)

val state_words : t -> int
(** Words held by the flat per-binding state (arena, occurrence log,
    token table, interner and park log, whole segments and array
    capacities included) — the bench's bytes-per-instance numerator
    for the engine's own structures.  The interner is one int per slot,
    ~1.3 words per binding at its load factor. *)

(** {2 Test hooks} *)

(** The checkpoint: tokens by binding id, the packed occurrence log, the
    tick, off-spec occurrences and (binding, base, fate word) triples. *)
type snapshot = {
  f_tokens : string Arena.Vec.t;
  f_occ : int Arena.Vec.t;
  f_ptick : int;
  f_extras : Literal.t array;
  f_parked : int array;
}

module For_testing : sig
  val snapshot_codec : snapshot Wf_store.Binio.t

  val snapshot : t -> snapshot
  (** The checkpoint the engine would write now: right after its
      [checkpoint_every]-th input it equals the one just written. *)

  val snapshot_reads : t -> int
  (** Fate cells read by every snapshot taken so far, {!snapshot}'s
      included: the park log's length at each, i.e. the fates parked at
      the previous snapshot plus those parked since. *)

  val scan_parked : t -> int array * Symbol.t list
  (** The full O(bindings × bases) scan of the fate columns that the
      park log replaced: the parked (binding, base, fate word) triples
      in (binding, base) order, and the parked symbols newest first.
      A differential oracle for the snapshot's triples and {!parked}. *)

  val binding_id : t -> string -> int option
  (** The dense id the interner holds for a token, if any. *)

  val interner_slots : t -> int
  (** The interner's capacity; it doubles on each growth. *)

  val bindings : t -> int
  (** Distinct parameter bindings interned so far. *)

  val audit_open_verdicts : t -> int * int
  (** [(checked, mismatches)] over every (binding, compiled guard) whose
      table state is [Open]: the cached per-state verdict the decisions
      read (filled on a miss, counted) against a fresh symbolic evaluation
      of that binding (uncounted).  O(bindings × guards). *)
end
