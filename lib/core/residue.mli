(** Residuation: the remnant of a dependency after an event (Section 3.4).

    [D/e] captures the scheduler's state change when event [e] occurs
    while enforcing [D].  The symbolic computation implements the paper's
    Residuation rules 1–8 on normal forms; {!semantic} implements the
    model-theoretic Semantics 6 directly over an enumerated universe and
    serves as the oracle for Theorem 1 ("Equations 1 through 8 are
    sound").

    Note on the comparison: any continuation [v] that mentions the
    residuated symbol again makes [uv ∉ U_E] for every [u ⊨ e], so
    Semantics 6 is vacuously true of it; the symbolic rules instead
    normalize such junk away.  The two therefore agree on continuations
    over [Γ ∖ {e, ē}] — exactly the traces a scheduler can still
    realize — and {!For_testing.agrees_with_oracle} compares them
    there. *)

val nf : Nf.t -> Literal.t -> Nf.t
(** Symbolic residuation on normal forms.  When {!Intern.enabled}, the
    result is memoized in a process-wide table keyed on interned ids
    (term residues are memoized one level down the same way), shared
    across all events of a run; results are structurally identical to
    {!nf_naive} either way. *)

val nf_naive : Nf.t -> Literal.t -> Nf.t
(** Memo-free reference implementation — the differential-testing oracle
    and the "before" leg of the benches. *)

val nf_interned : Nf.t -> Intern.id -> Literal.t -> Intern.id -> Nf.t * Intern.id
(** [nf_interned t (Intern.nf t) e (Intern.literal e)] is {!nf} for
    callers that already hold the interned ids: the memo is probed
    without re-walking [t], and the residual comes back with its own id
    so chained residuations never intern a value twice.  Assumes
    interning is enabled. *)

val by_trace : Nf.t -> Trace.t -> Nf.t
(** Fold of {!nf} over a trace: [((d/e1)/e2)/…]. *)

(** {2 Test hooks} *)

module For_testing : sig
  val symbolic : Expr.t -> Literal.t -> Expr.t
  (** [symbolic d e] is [d/e] via normal forms. *)

  val agrees_with_oracle : ?alphabet:Symbol.Set.t -> Expr.t -> Literal.t -> bool
  (** Theorem 1 instance check: the symbolic residual and the semantic
      residual coincide on all traces not mentioning the residuated
      symbol. *)
end
