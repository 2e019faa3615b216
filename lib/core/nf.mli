(** Normal form: sums of conjunctions of sequence terms.

    The paper's Residuation rules 1–8 assume "no [|] or [+] in the scope
    of [·]"; this module establishes that shape.  A normal form is a sum
    ([+]) of products ([|]) of sequence terms.  Distribution of [·] over
    [+] and over [|] is sound in the trace semantics because every term
    constraint decomposes into "these literals occur, in this relative
    order", so a single split point can be chosen for all conjuncts
    simultaneously (this validates the distributivity the paper notes in
    Section 3.2).

    Products are kept satisfiable: a product is [0] exactly when its
    literals demand both polarities of some symbol or its ordering
    constraints form a cycle, both of which are detected exactly. *)

type product = Term.t list
(** Conjunction of terms; [[]] is [⊤].  Invariant: satisfiable, no term
    implied by another, sorted. *)

type t = product list
(** Sum of products; [[]] is [0].  Invariant: no product absorbed by a
    weaker one, sorted. *)

val zero : t
val is_zero : t -> bool

val is_top : t -> bool
(** Syntactic check; complete only up to the conservative absorption
    performed here (use {!Equiv} for a semantic decision). *)

val of_expr : Expr.t -> t
val to_expr : t -> Expr.t

val sum : t -> t -> t

val product_satisfiable : Term.t list -> bool
(** Exact satisfiability of a conjunction of terms: polarity-consistent
    and acyclic ordering constraints. *)

val normalize_product : Term.t list -> product option
(** Drop [⊤] terms and implied terms, sort; [None] when unsatisfiable. *)

val literals : t -> Literal.Set.t
val rename : (Symbol.t -> Symbol.t) -> t -> t
(** Rename every symbol without renormalizing: products and terms keep
    their order.  When the renaming is order-preserving on the normal
    form's symbols, the result is the normal form of the renamed
    expression, since every sort and absorption test here compares
    symbols only through {!Symbol.compare}. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Test hooks} *)

module For_testing : sig
  val satisfies : Trace.t -> t -> bool
end
