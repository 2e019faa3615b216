open Wf_core

(** Scheduling parametrized dependencies (Section 5).

    Dependencies are {!Wf_core.Ptemplate} templates; guard synthesis
    runs once on each template's skeleton, and the resulting guard
    templates are instantiated per binding at run time.  Unbound
    variables are universally quantified: an attempt is allowed only if
    every instantiation of the free variables — the bindings observed so
    far plus a generic fresh one — evaluates to [True].  Fresh instances
    evaluate with their events in situation D ("never occurs"), which is
    what lets guards grow when a binding becomes active and be
    resurrected when its obligations are met (Example 14).

    The engine is a logically centralized token manager (the paper's §5
    machinery is about the reasoning; its distribution follows §4 and is
    exercised by {!Event_sched}).  It supports tasks of arbitrary
    structure: agents may attempt event tokens in any order, any number
    of times (Example 13). *)

type outcome =
  | Accepted
  | Parked
  | Rejected
  | Already
  | Busy of { retry_after : float }
      (** shed by admission control: the parked backlog is over the
          {!Flow.config.shed_watermark}; retry after [retry_after]
          logical ticks.  Only produced when the engine was created
          with a [flow] config. *)

type t

val create :
  ?checkpoint_every:int ->
  ?store:Wf_store.Media.Sim.fault_config ->
  ?store_seed:int64 ->
  ?flow:Flow.config ->
  Ptemplate.t list ->
  t
(** Synthesizes one guard template per (dependency, atom pattern).
    [checkpoint_every] (default 32) sets the engine's write-ahead
    journal cadence; see {!recover}.  [store] (default absent) backs
    the journal with a checksummed framed log over simulated storage
    seeded with [store_seed]: {!recover} then injects the configured
    faults and rebuilds from the salvage scan instead of trusting the
    in-memory journal.  [flow] (default absent) enables admission
    control: {!attempt} sheds with {!Busy} when the parked backlog is
    at or above the config's [shed_watermark] — shed attempts are
    refused {e before} they are journaled, so crash replay sees
    exactly the admitted input sequence; probe admissions keep shed
    tokens live (see {!Flow.admit}). *)

val set_tracer : t -> Wf_obs.Trace.sink option -> unit
(** Attach a structured trace sink: decisions emit
    [Wf_obs.Trace.Assim] records (enabled / parked / reduced /
    rejected) whose guard id is the interned instance guard of the
    first matching template.  The engine has no simulated clock, so
    records are stamped with a logical tick (one per journaled input).
    {!recover} replays silently and carries the sink over. *)

val attempt : t -> Symbol.t -> outcome
(** Attempt a ground positive event token, e.g. [b_t1(3)].  [Accepted]
    records the occurrence and re-evaluates parked tokens; [Parked]
    tokens are retried automatically on later occurrences; [Already]
    reports a token whose symbol is decided (e.g. it was accepted by a
    retry of a parked attempt). *)

val occurred : t -> Literal.t -> unit
(** Force an occurrence (uncontrollable events, complements). *)

val parked : t -> Symbol.t list

val parked_count : t -> int
(** [List.length (parked t)], maintained incrementally — O(1).  The
    admission gate and open-loop drivers read the backlog depth on
    every attempt, so a list traversal there would be O(p) per event. *)

val trace : t -> Trace.t
(** Realized trace, in occurrence order. *)

val knowledge : t -> Knowledge.t

val guard_templates : t -> (int * Ptemplate.atom * Guard.t) list
(** The synthesized guard templates (dependency index, pattern,
    guard over [?var]-marked symbols). *)

val stats : t -> Wf_obs.Metrics.t
(** The engine's metrics registry — holds the admission controller's
    [flow_*] counters when the engine was created with a [flow]
    config (empty otherwise). *)

val work : t -> int
(** Cumulative decisions counted (attempt decides plus parked
    re-decides, whether or not they hit the instance cache) — the
    engine's unit of work.  An attempt landing on a backlog of [p]
    parked tokens costs O(p) re-decides, so open-loop drivers use the
    delta of this counter to charge a virtual service cost that
    honestly grows with congestion. *)

val evaluations : t -> int
(** Cumulative instance evaluations the decisions actually ran,
    separate from {!work}.  Each parked attempt caches, per closed
    instance (no free variable left after binding), the status of its
    last evaluation keyed by the fates ({!Knowledge.fate_of}, polarity
    and seqno) of the instance's own symbols; a re-decide whose fates
    still match reuses it.  Cache misses and open instances (evaluated
    afresh every time) count here; hits do not.  Carried across
    {!recover} like {!work}. *)

val recover : t -> t
(** Simulate a crash and restart: rebuild a fresh engine from the same
    dependency list (templates re-synthesized), restore the journal's
    latest checkpoint, and replay the suffix.  Without simulated
    storage the result is state-identical to the input engine
    ({!equal_state}) and continues the run seamlessly — the journal is
    carried over.  With a [store] (see {!create}), the crash first
    damages the media per its fault config; recovery then replays
    exactly the verifiable prefix, which equals the pre-crash state
    only when no fault fired, and {!last_salvage} reports what was
    kept. *)

val last_salvage : t -> Wf_store.Log.salvage_report option
(** The salvage report of the most recent {!recover} over simulated
    storage; [None] before any such recovery (or without a store). *)

val equal_state : t -> t -> bool
(** Field-by-field equality of the mutable engine state (knowledge,
    sequence counter, occurrence log, parked tokens). *)

val instance_status :
  t -> Guard.t -> bound:(string * string) list -> Knowledge.status
(** Evaluate one guard-template instance under the engine's current
    knowledge, bypassing the instance cache: bound variables are
    substituted; remaining free variables are universally quantified
    over active bindings plus a fresh one.  Exposed for the Example 14
    walkthrough and tests. *)

val cached_decision :
  ?know:Knowledge.t -> t -> Symbol.t -> Knowledge.status option
(** For a parked [sym]: the decision a re-decide would take from the
    instance cache if the engine's knowledge were [know] (default: its
    own) — [Some] when every instance is closed and holds a status whose
    fate key matches [know], [None] when the re-decide would evaluate
    (or [sym] is not parked).  Reads only; for tests. *)
