open Wf_core

(** The engine shell shared by the two parametrized engines (Section 5).

    Both {!Param_sched} (symbolic, per-instance state) and {!Fleet}
    (arena-backed, per-binding int words) run the same scheduler:
    synthesize one guard per template atom, instantiate it per binding,
    decide attempts against what has occurred.  They differ only in how
    they hold state and decide.  Everything around the decision is
    owned here, once:

    - the {!outcome} of an attempt;
    - the journaled input (an attempt or an occurrence) and its durable
      entry codec;
    - template synthesis: one guard template per (dependency index,
      atom pattern), over [?var]-marked symbols;
    - the journal (which owns its simulated medium), admission
      control, trace sink and logical clock;
    - the input sequence: admit, journal, tick, apply, checkpoint;
    - crash recovery: crash the journal ({!Wf_store.Journal.crash},
      which salvages and reports over a medium), restore the checkpoint
      and replay the suffix silently.

    An engine supplies a {!CORE} (its state, decisions, snapshot codec)
    and gets the {!S} surface from {!Make}. *)

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

val combine : Knowledge.status -> Knowledge.status -> Knowledge.status
(** Conjunction of instance verdicts: [False] absorbs, [True] is the
    unit, anything else is [Unknown]. *)

val is_marker : string -> bool
(** A [?var] argument of a template symbol. *)

val fresh_marker : string
(** The argument of a generic never-seen binding (["*"]). *)

(** {2 Engine cores} *)

type env = {
  tracer : Wf_obs.Trace.sink option ref;
      (** shared with the flow controller and carried across recover,
          so retargeting the sink retargets both *)
  tick : int ref;
      (** logical time for trace records: one per journaled input (the
          engines have no simulated clock); shared like [tracer] *)
  fstats : Wf_obs.Metrics.t;
  mutable work : int;  (** see {!S.work}; carried across recover *)
}
(** What the shell hands a core: the trace sink and clock it stamps
    decisions with, the metrics registry, and the work counter it bumps
    per decision. *)

val emit_assim : env -> Symbol.t -> guard:int -> Wf_obs.Trace.outcome -> unit
(** Emit the [Assim] record of a decision about [sym] to the attached
    sink, if any.  Cores compute [guard] only when {!tracing}. *)

val tracing : env -> bool
(** Is a sink attached? *)

module type CORE = sig
  type t
  type snapshot

  val checkpoint_every : int
  (** Default journal cadence. *)

  val create :
    env -> Ptemplate.t list -> (int * Ptemplate.atom * Guard.t) list -> t
  (** Fresh state for the dependencies and their synthesized templates;
      may refuse a spec with [Invalid_argument]. *)

  val apply_attempt : t -> Symbol.t -> outcome
  (** Decide an admitted, journaled attempt; never [Busy]. *)

  val apply_occurred : t -> Literal.t -> unit
  val snapshot : t -> snapshot
  val restore : t -> snapshot -> unit
  val snapshot_codec : snapshot Wf_store.Binio.t

  val carry : from:t -> t -> unit
  (** Copy the core's own cumulative counters from a crashed state
      into its fresh replacement, before replay. *)

  val equal_state : t -> t -> bool
  val parked : t -> Symbol.t list
  val parked_count : t -> int
  val decided : t -> Symbol.t -> bool
  val trace : t -> Trace.t
  val knowledge : t -> Knowledge.t
end

(** {2 The engine surface} *)

module type S = sig
  type t

  val create :
    ?checkpoint_every:int ->
    ?store:Wf_store.Media.Sim.fault_config ->
    ?store_seed:int64 ->
    ?flow:Flow.config ->
    Ptemplate.t list ->
    t
  (** Synthesizes the guard templates ({!guard_templates}).
      [checkpoint_every] sets the write-ahead journal cadence (default
      per engine: 32 for {!Param_sched}, 1024 for {!Fleet}); see
      {!recover}.  [store] (default absent) backs the journal with a
      checksummed framed log over simulated storage seeded with
      [store_seed]: {!recover} then injects the configured faults and
      rebuilds from the salvage scan instead of trusting the in-memory
      journal.  The medium counts into {!stats} ([store_*], salvages
      included) and traces [Store_fault] and [Store_salvage] records
      into the engine's sink at site 0, stamped with the logical
      clock.  [flow] (default absent) enables admission control:
      {!attempt} sheds with [Busy] when the parked backlog is at or
      above the config's [shed_watermark] — shed attempts are refused
      {e before} they are journaled, so crash replay sees exactly the
      admitted input sequence; probe admissions keep shed tokens live
      (see {!Flow.admit}). *)

  val set_tracer : t -> Wf_obs.Trace.sink option -> unit
  (** Attach a structured trace sink: decisions emit
      [Wf_obs.Trace.Assim] records (enabled / parked / reduced /
      rejected) whose guard id is the interned instance guard of the
      first matching positive template ([-1] when none matches).
      Records are stamped with a logical tick, one per journaled input.
      {!recover} replays silently, emits one [Store_salvage] record
      when it salvaged a store, and carries the sink over. *)

  val attempt : t -> Symbol.t -> outcome
  (** Attempt a ground positive event token, e.g. [b_t1(3)].  [Accepted]
      records the occurrence and re-evaluates parked tokens; [Parked]
      tokens are retried automatically on later occurrences; [Already]
      reports a token whose symbol is decided (e.g. it was accepted by a
      retry of a parked attempt).  A token no template matches is
      vacuously accepted. *)

  val occurred : t -> Literal.t -> unit
  (** Force an occurrence (uncontrollable events, complements). *)

  val parked : t -> Symbol.t list
  (** Parked attempts, newest first. *)

  val parked_count : t -> int
  (** [List.length (parked t)], in O(1): the admission gate and
      open-loop drivers read the backlog depth on every attempt. *)

  val decided : t -> Symbol.t -> bool
  (** Has this ground symbol occurred (either polarity)? *)

  val trace : t -> Trace.t
  (** Realized trace, in occurrence order. *)

  val knowledge : t -> Knowledge.t

  val guard_templates : t -> (int * Ptemplate.atom * Guard.t) list
  (** The synthesized guard templates, in dependency order then atom
      order: both engines read this one list, so a binding's first
      matching positive template (whose instance guard id a trace
      record carries) is the same in either. *)

  val stats : t -> Wf_obs.Metrics.t
  (** The engine's metrics registry: the admission controller's
      [flow_*] counters when created with a [flow] config, plus the
      engine's own counters. *)

  val work : t -> int
  (** Cumulative decisions taken: attempt decides plus parked
      re-decides, whatever they cost (cache hits and table reads
      included) — the engine's unit of work.  An attempt landing on a
      backlog of [p] parked tokens costs O(p) re-decides in the
      symbolic engine, so open-loop drivers use the delta of this
      counter to charge a virtual service cost that grows with
      congestion.  Carried across {!recover}. *)

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
      storage ({!Wf_store.Journal.last_salvage}); [None] before any such
      recovery (or without a store). *)

  val equal_state : t -> t -> bool
  (** Equality of the mutable engine state (what {!recover} must
      reproduce; derived caches excluded). *)
end

module Make (C : CORE) : sig
  include S

  val core : t -> C.t
end

(** {2 Test hooks} *)

(** The journaled input: an admitted attempt or a forced occurrence. *)
type input = Attempt of Symbol.t | Occurred of Literal.t

module For_testing : sig
  val input_codec : input Wf_store.Binio.t
end
