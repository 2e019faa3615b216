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
    of times (Example 13).

    Journal, admission and recovery are the {!Param_engine} shell;
    this module holds the symbolic state and decisions.  The journal
    cadence defaults to 32 inputs. *)

type outcome = Param_engine.outcome =
  | Accepted
  | Parked
  | Rejected
  | Already
  | Busy of { retry_after : float }

include Param_engine.S

val evaluations : t -> int
(** Cumulative instance evaluations the decisions actually ran,
    separate from {!work}.  Each parked attempt caches, per closed
    instance (no free variable left after binding), the status of its
    last evaluation keyed by the fates ({!Knowledge.fate_of}, polarity
    and seqno) of the instance's own symbols; a re-decide whose fates
    still match reuses it.  The fates are read from per-symbol cells the
    engine resolves once and updates as it records occurrences.  Cache misses and open instances (evaluated
    afresh every time) count here; hits do not.  Carried across
    {!recover} like {!work}. *)

val instance_status :
  t -> Guard.t -> bound:(string * string) list -> Knowledge.status
(** Evaluate one guard-template instance under the engine's current
    knowledge, bypassing the instance cache: bound variables are
    substituted; remaining free variables are universally quantified
    over active bindings plus a fresh one.  Exposed for the Example 14
    walkthrough and tests. *)

(** {2 Test hooks} *)

(** The checkpoint; occurrences and parked tokens newest first. *)
type snapshot = {
  s_know : Knowledge.t;
  s_seqno : int;
  s_occurrences : Literal.t list;
  s_parked_syms : Symbol.t list;
}

module For_testing : sig
  val snapshot_codec : snapshot Wf_store.Binio.t

  val cached_decision :
    ?know:Knowledge.t -> t -> Symbol.t -> Knowledge.status option
  (** For a parked [sym]: the decision a re-decide would take from the
      instance cache if the engine's knowledge were [know] (default: its
      own) — [Some] when every instance is closed and holds a status whose
      fate key matches [know], [None] when the re-decide would evaluate
      (or [sym] is not parked).  Without [know] the fates are read from
      the engine's fate cells, as a re-decide reads them.  Reads only. *)

  val fate_cells : t -> (Symbol.t * Knowledge.fate option) list
  (** The engine's per-symbol fate cells, in no particular order: every
      symbol its decisions have resolved since creation or the last
      {!recover}, with the fate the cell holds.  Each should equal
      {!Knowledge.fate_of} of {!knowledge} at the symbol. *)
end
