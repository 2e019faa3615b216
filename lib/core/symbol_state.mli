(** The four-state abstraction of a symbol's fate, and constraint masks.

    On a maximal trace, each symbol [s] is at every index in exactly one
    of four situations:
    - [A]: the event [s] has occurred;
    - [B]: the complement [s̄] has occurred;
    - [C]: neither has occurred yet, but [s] eventually will;
    - [D]: neither has occurred yet, but [s̄] eventually will.

    The primitive temporal constraints the paper's guards place on a
    single symbol — [□e], [□ē], [¬e], [¬ē], [◇e], [◇ē] — are exactly
    unions of these situations (compare Figure 3), so a per-symbol
    constraint is a 4-bit mask and conjunction is bitwise intersection.
    This gives guards a small canonical form with an evidently sound
    simplifier; the laws of Example 8 fall out as mask identities. *)

type mask = int
(** Bits: [A]=1, [B]=2, [C]=4, [D]=8. *)

type situation = A | B | C | D

val full : mask

val compare_mask : mask -> mask -> int
val equal_mask : mask -> mask -> bool

val of_situation : situation -> mask
val mem : situation -> mask -> bool
val inter : mask -> mask -> mask
val union : mask -> mask -> mask
val subset : mask -> mask -> bool
val is_full : mask -> bool
val is_empty : mask -> bool

val has : Literal.polarity -> mask
(** [□e] = [{A}] or [□ē] = [{B}]. *)

val hasnt : Literal.polarity -> mask
(** [¬e] = [{B,C,D}] or [¬ē] = [{A,C,D}]. *)

val will : Literal.polarity -> mask
(** [◇e] = [{A,C}] or [◇ē] = [{B,D}]. *)

val possible_after_promise : Literal.polarity -> mask
(** States reachable once [◇e] (resp. [◇ē]) is known: [{A,C}]
    (resp. [{B,D}]). *)

val eval : Trace.t -> int -> Symbol.t -> mask -> bool

val to_formula : Symbol.t -> mask -> Formula.t
(** A temporal formula denoting exactly the mask; common masks render as
    the usual [□]/[◇]/[¬] forms. *)

(** {2 Test hooks} *)

module For_testing : sig
  val situation_of : Trace.t -> int -> Symbol.t -> situation
  (** The symbol's situation on a maximal trace at an index.  Raises
      [Invalid_argument] if the trace does not decide the symbol. *)
end
