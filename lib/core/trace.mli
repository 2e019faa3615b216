(** Traces: finite sequences of event literals.

    A trace describes a fragment of a possible computation (Section 3.2).
    Membership in the universe [U_E] (Definition 1) requires that no trace
    contain both an event and its complement and that no event instance
    occur more than once; with literals over distinct symbols both
    conditions reduce to: no symbol appears twice. *)

type t = Literal.t list

val well_formed : t -> bool
(** [well_formed u] holds iff [u ∈ U_E]: no symbol occurs twice. *)

val maximal : Symbol.Set.t -> t -> bool
(** [maximal alphabet u] holds iff [u ∈ U_T] relative to [alphabet]: [u]
    is well formed and decides every symbol, i.e. for each symbol either
    the event or its complement occurs (Section 4.1). *)

val mem : Literal.t -> t -> bool
(** Does the literal occur anywhere on the trace? *)

val symbols : t -> Symbol.Set.t
(** Symbols decided by the trace. *)

val length : t -> int

val prefix : int -> t -> t
(** [prefix i u] is the first [i] events of [u]. *)

val suffix : int -> t -> t
(** [suffix j u] is [u] with its first [j] events removed ([u^j]). *)

val append : t -> t -> t option
(** [append u v] is [Some (u @ v)] when the result is well formed, which
    is the side condition [uv ∈ U_E] of Semantics 6. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Prints in the paper's bracket notation, e.g. [⟨e ~f⟩]. *)

val to_string : t -> string

val of_events : string list -> t
(** Convenience: ["~e"] means the complement of [e], anything else a
    positive literal, e.g. [of_events ["e"; "~f"]] is [⟨e ~f⟩]. *)

(** {2 Test hooks} *)

module For_testing : sig
  val index_of : Literal.t -> t -> int option
  (** 1-based position of the literal's occurrence, if any. *)
end
