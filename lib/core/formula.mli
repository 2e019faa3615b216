(** The temporal language [T] in which guards are expressed (Section 4.1).

    [T] embeds the event algebra (Syntax 5) and adds [□] (always),
    [◇] (eventually), and [¬] (not).  Under the stability of events —
    once occurred, occurred forever (Semantics 7) — [□e] coincides with
    [e], [◇e] means [e] has occurred or will, and [¬e] means [e] has not
    occurred {e yet}. *)

type t =
  | Zero
  | Top
  | Atom of Literal.t
  | Seq of t * t
  | Or of t * t
  | And of t * t
  | Always of t
  | Eventually of t
  | Not of t

val zero : t
val top : t
val atom : Literal.t -> t
val event : string -> t
val complement : string -> t

val or_ : t -> t -> t
val and_ : t -> t -> t
val always : t -> t
val eventually : t -> t
val not_ : t -> t

val or_all : t list -> t
val and_all : t list -> t

val of_expr : Expr.t -> t
(** The coercion of Syntax 5. *)

val symbols : t -> Symbol.Set.t
val pp : Format.formatter -> t -> unit
(** Paper-style notation: [[]e] for [□e], [<>e] for [◇e], [!e] for
    [¬e]. *)

val to_string : t -> string
