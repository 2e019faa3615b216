(** Guards: the temporal fragment synthesized on events (Sections 4.2–4.3).

    A guard is kept in a disjunctive normal form whose products conjoin
    - a per-symbol constraint mask (see {!Symbol_state}) capturing the
      primitive constraints [□x], [¬x], [◇x] and their conjunctions, and
    - {e pending terms} [◇τ] for multi-event eventualities such as
      [◇(f·g)] that also constrain order.

    Products over the same symbols merge when they differ in a single
    symbol's mask (mask union), which yields the succinct guards the
    paper reports (e.g. [(¬f|¬f̄) + □f̄] collapses to [¬f], Example 9.6).

    Assimilation implements the proof rules of Section 4.3: receiving
    [□x] reduces subformulas [□x] and [◇x] to [⊤] and [¬x] to [0] (and
    residuates pending terms); receiving a promise [◇x] reduces [◇x] to
    [⊤] and leaves [□x] and [¬x] symbolic.

    Assimilation-order requirement: occurrences of literals mentioned by
    one pending term must be assimilated in their true order of
    occurrence; the paper's compilation phase "adds messages to ensure"
    a consistent temporal view, and our scheduler orders announcements
    with sequence numbers accordingly. *)

type product = {
  masks : Symbol_state.mask Symbol.Map.t;
  pending : Term.t list; (* each of length >= 2 *)
}

type t = product list

(** {1 Construction} *)

val top : t
val bottom : t
val has : Literal.t -> t
(** [□x]. *)

val hasnt : Literal.t -> t
(** [¬x]. *)

val will_term : Term.t -> t
(** [◇τ]: all of τ's literals eventually occur, in τ's order. *)

val will_nf : Nf.t -> t
(** [◇E] for a normal form [E]; sound because occurrence predicates are
    monotone along a trace, so [◇] distributes over [+] and [|]. *)

val will_nf_interned : Nf.t -> Intern.id -> t
(** {!will_nf} memoized by the normal form's interned id (the caller
    already holds it when chaining residuations).  The memo is dropped
    by {!Intern.clear_memos}. *)

val conj : t -> t -> t
val sum : t -> t -> t
val conj_all : t list -> t
val sum_all : t list -> t

val branch_sum : t -> (Literal.t * t) list -> t
(** [branch_sum first branches] is
    [sum_all (first :: List.map (fun (l, g) -> conj (has l) g) branches)]
    computed with a single sum-level normalization pass instead of one
    per branch.  This is the shape synthesis builds at every recursion
    node, so the saved renormalizations dominate end-to-end guard
    synthesis time. *)

(** {1 Inspection} *)

val is_true : t -> bool
val is_false : t -> bool
val products : t -> product list
val symbols : t -> Symbol.Set.t
val size : t -> int
(** Total count of mask constraints and pending terms, for benches. *)

(** {1 Semantics} *)

val eval : Trace.t -> int -> t -> bool
(** Truth at an index of a maximal trace (used by Definition 4 and the
    test oracle).  The trace must decide every constrained symbol. *)

val to_formula : t -> Formula.t
(** {1 Assimilation (Section 4.3 proof rules)} *)

val assimilate_occurred : Literal.t -> t -> t
(** The event [x] has occurred ([□x] announcement). *)

val assimilate_promise : Literal.t -> t -> t
(** The event [x] is guaranteed to occur but has not yet ([◇x]). *)

(** {1 Comparison and renaming} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val map_symbols : (Symbol.t -> Symbol.t) -> t -> t
(** Substitute symbols and renormalize (used to instantiate guard
    templates, Section 5, where the mapping may merge symbols).  The
    renormalization can merge products the original form kept apart,
    so this is not a renaming: use {!rename} where the result must be
    the form a fresh build over the new symbols would give. *)

val rename : (Symbol.t -> Symbol.t) -> t -> t
(** Rename every symbol without renormalizing: products, masks and
    pending terms keep their order and content.  The mapping must be
    injective on the guard's symbols.  When it is also order-preserving
    on them, the result is exactly what synthesis and assimilation over
    the renamed symbols would build, because normalization compares
    symbols only through {!Symbol.compare}. *)

val uid : t -> int
(** Dense interned id of the guard, keyed on [compare], stable within a
    process run.  The observability layer uses it to name residual
    guards in trace records ([Wf_obs.Trace.Assim]), and [Gtable.lookup]
    keys its compiled-table memo by it on every lookup, so the table
    holds every guard traced or looked up, and each call pays a
    [compare]-keyed map probe.  Reset by [Intern.clear_memos]. *)

(** {2 Test hooks} *)

module For_testing : sig
  val will : Literal.t -> t
  (** [◇x]. *)

  val equivalent : alphabet:Symbol.Set.t -> t -> t -> bool
end
