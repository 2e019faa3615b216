(** The event algebra [E] (Section 3.1).

    Expressions specify acceptable computations: atoms are event literals;
    [·] is sequencing (memberwise trace concatenation), [+] is choice
    (union), [|] is conjunction (intersection); [0] denotes no trace and
    [⊤] every trace.  A dependency is an expression; a workflow is a set
    of dependencies. *)

type t =
  | Zero
  | Top
  | Atom of Literal.t
  | Seq of t * t
  | Choice of t * t
  | Conj of t * t

val zero : t
val top : t

val atom : Literal.t -> t
val event : string -> t
(** [event "e"] is the atom for the positive literal [e]. *)

val complement : string -> t
(** [complement "e"] is the atom for [~e]. *)

val seq : t -> t -> t
(** Sequencing with local simplification: [0] annihilates and [⊤] is an
    identity (valid because atoms are occurrence predicates over traces
    without repetition). *)

val choice : t -> t -> t
(** Choice with [0] as identity and [⊤] absorbing. *)

val conj : t -> t -> t
(** Conjunction with [⊤] as identity and [0] absorbing. *)

val seq_all : t list -> t
(** [seq_all [a; b; c]] is [a · b · c]; [seq_all []] is [⊤]. *)

val choice_all : t list -> t
(** n-ary [+]; empty list is [0]. *)

val conj_all : t list -> t
(** n-ary [|]; empty list is [⊤]. *)

val literals : t -> Literal.Set.t
(** [Γ_E]: the literals mentioned in [E] together with their complements
    (Section 3.4). *)

val symbols : t -> Symbol.Set.t
(** Symbols mentioned in [E]. *)

val rename : (Symbol.t -> Symbol.t) -> t -> t
(** Rename every atom's symbol, keeping the tree as it is (no smart
    constructor runs). *)

val equal_syntactic : t -> t -> bool

val hash : t -> int
(** Structural hash over every node, consistent with {!compare}. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed structurally on expressions. *)

val pp : Format.formatter -> t -> unit
(** Prints in the paper's notation, e.g. [~e + ~f + e.f]. *)

val to_string : t -> string
