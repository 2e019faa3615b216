(** The path characterization of guards (Definition 3, Lemma 5).

    [Π(D)] is the set of event sequences over [Γ_D] whose residual chain
    ends at [⊤].  Lemma 5 recasts [G(D,e)] as the sum, over the paths of
    [Π(D)] through [e], of the closed-form guard of a pure sequence:

    [G(e1…ek…en, ek) = □e1|…|□e_{k-1} | ¬e_{k+1}|…|¬e_n | ◇(e_{k+1}·…·e_n)]

    This module implements both and is compared against Definition 2 in
    the test suite (the paper uses Lemma 5 to prove Theorem 6). *)

val pi : Expr.t -> Trace.t list
(** [Π(D)]: all symbol-distinct residuation paths of [D] ending at a
    semantically-[⊤] residual. *)

(** {2 Test hooks} *)

module For_testing : sig
  val guard_via_paths : Expr.t -> Literal.t -> Guard.t
  (** Lemma 5's sum over [Π(D)] of the closed form above. *)
end
