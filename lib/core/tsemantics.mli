(** Indexed semantics of the temporal language (Semantics 7–14).

    Satisfaction is relative to a trace and an index into it: index [i]
    means the first [i] events have occurred.  Top-level evaluation is on
    {e maximal} traces ([U_T]): every symbol is eventually decided, one
    way or the other, which is what validates laws such as
    [◇e + ◇ē = ⊤] (Example 8).  Because the alphabet is finite, maximal
    traces are finite and [□]/[◇] quantify over indices [i..length u]. *)

val sat : Trace.t -> int -> Formula.t -> bool
(** [sat u i g] is [u ⊨ᵢ g].  [i] ranges over [0..length u]. *)

val equivalent : ?alphabet:Symbol.Set.t -> Formula.t -> Formula.t -> bool
(** Agreement at every (maximal trace, index) pair.  When [alphabet] is
    omitted the joint mentioned symbols are used, which is sound because
    satisfaction depends only on the projection onto them. *)

(** {2 Test hooks} *)

module For_testing : sig
  val entails : ?alphabet:Symbol.Set.t -> Formula.t -> Formula.t -> bool
end
