(** Guard synthesis: [G(D, e)] (Definition 2).

    The guard on event [e] due to dependency [D] is the weakest temporal
    condition under which [e] may occur without compromising [D]:

    [G(D,e) = (◇(D/e) | ⋀_{f ∈ Γ_{D^e}} ¬f) + Σ_{f ∈ Γ_{D^e}} (□f | G(D/f, e))]

    where [Γ_{D^e} = Γ_D ∖ {e, ē}].  The first summand covers [e]
    occurring before any other constrained event; the remaining summands
    condition on some other event having occurred first.  Recursion
    terminates because residuation eliminates the residuated symbol.
    Computation is memoized on semantically distinct residuals, so its
    cost is bounded by the scheduler-state automaton size times the
    alphabet. *)

val guard : Expr.t -> Literal.t -> Guard.t
(** [guard d e] is [G(d, e)].  When {!Intern.enabled}, memoized in a
    process-wide table keyed on interned [(residual, event)] ids, so
    shared subresiduals are computed once across all guards of a run
    (in particular across the literals of {!all_guards}). *)

val workflow_guard : Expr.t list -> Literal.t -> Guard.t
(** Guard on [e] due to a workflow: the conjunction of the guards from
    the dependencies that mention [e] (Section 4.2); [⊤] if none do. *)

val all_guards : Expr.t list -> (Literal.t * Guard.t) list
(** Guards for every literal mentioned by the workflow. *)

(** {2 Test hooks} *)

module For_testing : sig
  val guard_naive : Expr.t -> Literal.t -> Guard.t
  (** Memo-per-call reference implementation on top of memo-free
      residuation — the differential-testing oracle. *)
end
