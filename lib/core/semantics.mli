(** Trace semantics of the event algebra (Semantics 1–5).

    [u ⊨ E] relates traces of [U_E] to expressions: an atom is satisfied
    when its literal occurs on the trace; [E1·E2] when the trace splits
    into a prefix satisfying [E1] and a suffix satisfying [E2]; [+] and
    [|] are union and intersection.

    The evaluation works on segments [[lo, hi)] of the trace instead of
    enumerating splits.  Satisfaction is monotone in the segment
    (growing it at either end keeps every literal that satisfied an
    atom), so each expression has a least end from a given start, and
    [E1·E2] holds iff [E2] holds from the least cut point after which
    [E1] holds.  One walk of the expression decides it;
    the test suite checks it against the split-enumeration
    definition. *)

val satisfies : Trace.t -> Expr.t -> bool
(** [satisfies u e] is [u ⊨ e], each atom scanning the trace. *)

type index
(** A trace's literal → positions table, for checking many expressions
    against one trace: on the 35-event trace of five travel copies and
    their 15 dependencies, {!Correctness.violations} is ~4x faster
    through it than scanning; on a 7-event trace it only breaks
    even. *)

val index : Trace.t -> index

val holds : index -> Expr.t -> bool
(** [holds (index u) e] is [satisfies u e]. *)

val denotation : Symbol.Set.t -> Expr.t -> Trace.t list
(** [⟦E⟧] over the finite universe [U_E] for the given alphabet
    (the alphabet must contain [Expr.symbols e]). *)

val maximal_denotation : Symbol.Set.t -> Expr.t -> Trace.t list
(** [⟦E⟧] restricted to maximal traces ([U_T]). *)
