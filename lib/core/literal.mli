(** Event literals: an event symbol or its complement.

    For each event symbol [e] the alphabet contains both [e] and its
    complement [~e] (written [ē] in the paper).  A trace in the universe
    contains at most one of the two (Definition 1).  The complement
    "occurs" when it becomes known that [e] can never occur. *)

type polarity = Pos | Neg

type t = { sym : Symbol.t; pol : polarity }

val pos : Symbol.t -> t
val neg : Symbol.t -> t

val event : string -> t
(** [event "e"] is the positive literal on symbol [e]. *)

val complement_of : string -> t
(** [complement_of "e"] is [~e]. *)

val complement : t -> t
(** Involution flipping polarity: the paper identifies [ē̄] with [e]. *)

val is_pos : t -> bool
val symbol : t -> Symbol.t

val rename : (Symbol.t -> Symbol.t) -> t -> t
(** The literal on the renamed symbol, same polarity. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Prints [e] or [~e]. *)

val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
