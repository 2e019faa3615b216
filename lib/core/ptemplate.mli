(** Parametrized dependency templates (Section 5).

    Event atoms carry a tuple of parameters, each a constant or a
    variable; variables shared among atoms tie events of one workflow
    instance together (Example 12), while unbound variables are
    "treated as if universally quantified" (Section 5.2) — the shape of
    inter-workflow requirements such as the mutual exclusion of
    Example 13.

    A template's {e skeleton} replaces each variable [x] by the marker
    value [?x], yielding an ordinary ground expression on which guard
    synthesis runs once; the resulting guard templates are instantiated
    per binding at run time. *)

type param = Var of string | Const of string

type atom = { base : string; pol : Literal.polarity; params : param list }

type t =
  | Zero
  | Top
  | Atom of atom
  | Seq of t * t
  | Choice of t * t
  | Conj of t * t

val atom : ?pol:Literal.polarity -> string -> param list -> t
val seq : t -> t -> t
val choice_all : t list -> t

val vars : t -> string list
(** Distinct variable names, in order of first appearance. *)

val instantiate : (string * string) list -> t -> Expr.t
(** Ground the template; raises [Invalid_argument] on an unbound
    variable. *)

val skeleton : t -> Expr.t
(** Ground with marker values: variable [x] becomes the value [?x]. *)

val var_marker : string -> string
(** ["?x"] — the marker {!skeleton} uses. *)

val symbol_of_atom : (string -> string) -> atom -> Symbol.t
(** Build the ground symbol given a variable valuation. *)

val match_symbol : atom -> Symbol.t -> (string * string) list option
(** Unify a ground symbol against the atom's pattern: same base, same
    arity, constants equal; returns the variable bindings. *)

val atoms : t -> atom list
(** Distinct atoms of the template. *)

val mutual_exclusion_template : t1:string -> t2:string -> t
(** Example 13: [b2[y]·b1[x] + ē1[x] + b̄2[y] + e1[x]·b2[y]] with
    enter/exit symbols [b_ti]/[e_ti]. *)

val pp : Format.formatter -> t -> unit

(** {2 Test hooks} *)

module For_testing : sig
  val of_expr : Expr.t -> t
  (** Lift an unparametrized dependency (all parameters constant). *)
end
