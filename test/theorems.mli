(** Checkable statements of the paper's results on guard calculation
    (Section 4.4), used by the synthesis property tests.

    Each [check_*] function decides one instance of the corresponding
    theorem by exact semantic comparison over the joint alphabet. *)

open Wf_core

val alphabet_disjoint : Expr.t -> Expr.t -> bool
(** [Γ_D ∩ Γ_E = ∅], the side condition of Theorems 2 and 4. *)

val check_theorem2 : Expr.t -> Expr.t -> Literal.t -> bool
(** [G(D+E, e) = G(D,e) + G(E,e)] when alphabets are disjoint. *)

val check_lemma3 : Expr.t -> Literal.t -> Literal.t -> bool
(** [G(D,e) = ¬g|G(D,e) + □g|G(D/g,e)] for [g ∉ {e, ē}]. *)

val check_theorem4 : Expr.t -> Expr.t -> Literal.t -> bool
(** [G(D|E, e) = G(D,e) | G(E,e)] when alphabets are disjoint. *)

val check_lemma5 : Expr.t -> Literal.t -> bool
(** Definition 2 and the [Π(D)] path sum agree. *)

val fast_guard : Expr.t list -> Literal.t -> Guard.t
(** Synthesis exploiting Theorem 4: the guard of the conjunction of an
    alphabet-disjoint dependency family is computed dependency-wise
    instead of on the (exponentially larger) conjunction. Falls back to
    {!Compile.plan} semantics in all cases. *)
