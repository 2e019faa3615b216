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
    (in particular across the literals of {!guards}). *)

val guards : Expr.t -> (Literal.t * Guard.t) list
(** [G(d, e)] for every literal [e] of [d], in literal order, from one
    normal form of [d].  When {!Intern.enabled}, memoized by the
    dependency's {!Shape}: a dependency that an order-preserving
    renaming carries onto an earlier one gets the earlier guards renamed
    ([Guard.rename]), equal to a fresh synthesis.  The memo is emptied by
    {!Intern.clear_memos}; with interning disabled every call
    synthesizes afresh through the naive kernel.  An event's guard due
    to a workflow is the conjunction of the guards its dependencies give
    it, in dependency order ({!Compile}). *)

(** {2 Test hooks} *)

module For_testing : sig
  val guard_naive : Expr.t -> Literal.t -> Guard.t
  (** Memo-per-call reference implementation on top of memo-free
      residuation — the differential-testing oracle. *)

  val stats : unit -> (string * int) list
  (** [synthesized]: dependencies whose guards {!guards} synthesized
      since the last {!Intern.clear_memos}; [renamed]: dependencies that
      got the guards of an earlier dependency of the same shape. *)
end
