(** Sequence terms: the [·]-only fragment of the algebra.

    A term [e1·e2·…·en] is satisfied by exactly the traces on which all
    the [ei] occur, in that relative order.  Terms are the leaves of the
    normal form on which the paper's Residuation rules 1–8 operate ("no
    [|] or [+] in the scope of [·]").  A term whose literals repeat a
    symbol denotes no trace at all (the universe forbids repetition and
    complement co-occurrence), so construction normalizes such terms
    to [None]. *)

type t = Literal.t list
(** Invariant: all literals are over pairwise distinct symbols.  The
    empty term is [⊤]. *)

val make : Literal.t list -> t option
(** [make lits] is [Some lits] when no symbol repeats, else [None]
    (the term denotes [0]). *)

val top : t
val is_top : t -> bool

val literals : t -> Literal.Set.t
(** Literals of the term and their complements ([Γ_τ]). *)

val satisfies : Trace.t -> t -> bool
(** Direct satisfaction test: all literals occur, in order. *)

val residue : t -> Literal.t -> t option
(** Symbolic residuation of a term by an event (Residuation 2, 3, 6–8):
    [None] is [0].
    - [τ/e = rest]    when [τ = e·rest]                       (rule 3)
    - [τ/e = 0]       when [ē ∈ Γ_τ]                          (rule 8)
    - [τ/e = 0]       when [e] occurs in [τ] but not at head  (rule 7)
    - [τ/e = τ]       when [e, ē ∉ Γ_τ]                       (rules 2, 6) *)

val compare : t -> t -> int
val equal : t -> t -> bool
val rename : (Symbol.t -> Symbol.t) -> t -> t
(** Rename every literal's symbol, keeping the literal order. *)

val to_expr : t -> Expr.t
