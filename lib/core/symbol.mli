(** Event symbols.

    A symbol names a significant event type of some task, e.g. [s_buy],
    [c_book], or a ground parametrized event such as [b1(7)] (Section 5 of
    the paper).  Symbols are totally ordered so they can key maps and sets
    and so that guard products have a canonical form.

    {b Order.}  [compare] orders by base, then by the argument list,
    each string bytewise ([String.compare], then [List.compare
    String.compare] on the arguments); unparametrized symbols come first
    among those of one base.  Maps and sets iterate in this order.

    {b Cost.}  Besides the name and its hash, a symbol holds two integer
    keys computed at construction, each packing a string's first 7 bytes
    (zero-padded) and its length capped at 8: one for the base, one for
    the first argument, with a bit that says whether more of the
    argument list remains.  The keys decide [compare] and [equal]
    without reading a string, except between two symbols whose bases
    (or, under equal bases, first arguments) are both at least 8 bytes
    long and share their first 7 bytes, or that share base and first
    argument and both carry further arguments; only those pairs walk
    the names.  The keys make a symbol 2 words larger. *)

type t

val make : string -> t
(** [make name] is the symbol called [name].  Symbols are compared by
    name (see {b Order} above), so [make "e"] always denotes the same
    symbol. *)

val parametrized : string -> string list -> t
(** [parametrized base args] is the ground parametrized event symbol
    [base(arg1,...,argn)], e.g. [parametrized "f" ["3"]] prints as
    [f(3)].  The base and arguments are recoverable with {!base} and
    {!args}. *)

val name : t -> string
(** Full printed name, including any parameter tuple. *)

val base : t -> string
(** Base name without the parameter tuple. *)

val args : t -> string list
(** Parameter tuple; [[]] for unparametrized symbols. *)

val compare : t -> t -> int
(** The name order above. *)

val equal : t -> t -> bool
(** [equal a b] iff [compare a b = 0]. *)

val hash : t -> int
(** [Hashtbl.hash (base t, args t)], precomputed. *)

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module For_testing : sig
  val string_walks : unit -> int
  (** Number of [compare]/[equal] calls so far that fell back to walking
      the names, since the program started. *)
end
