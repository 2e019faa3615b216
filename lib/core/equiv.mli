(** Semantic comparison of algebra expressions over finite alphabets.

    Satisfaction of an expression depends only on the projection of a
    trace onto the expression's own symbols, so comparing denotations
    over the union of the mentioned symbols decides equivalence for any
    enclosing alphabet.  Exponential in the alphabet size; intended for
    dependency-sized expressions (2–6 symbols), tests, and oracles. *)

val equal : ?alphabet:Symbol.Set.t -> Expr.t -> Expr.t -> bool
(** [⟦E1⟧ = ⟦E2⟧] over [U_E] of the joint (or given) alphabet. *)

val is_zero : ?alphabet:Symbol.Set.t -> Expr.t -> bool
val is_top : ?alphabet:Symbol.Set.t -> Expr.t -> bool

(** {2 Test hooks} *)

module For_testing : sig
  val entails : ?alphabet:Symbol.Set.t -> Expr.t -> Expr.t -> bool
  (** [⟦E1⟧ ⊆ ⟦E2⟧]. *)
end
