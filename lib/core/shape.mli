(** Shapes: inputs up to an order-preserving renaming of their symbols.

    A workflow repeats a few relation kinds over many event pairs, so
    its dependencies and guards fall into few {e shapes}.  The shape of
    an input is the input with its symbols replaced, in sorted order, by
    rank-indexed canonical symbols.  Two inputs share a shape exactly
    when an order-preserving renaming carries one onto the other: the
    one mapping the first's [i]-th smallest symbol to the second's.
    Automata and compiled guard tables are functions of the shape (their
    construction compares symbols only through {!Symbol.compare}), so
    {!Automaton.build} and {!Gtable.lookup} build each shape once and
    rename the result for every later input of that shape. *)

val canonical : Symbol.t array -> Symbol.t -> Symbol.t
(** [canonical syms] maps the [i]-th symbol of [syms], which must be
    sorted and distinct, to the rank-[i] canonical symbol.  Canonical
    symbols sort by rank and are built once per rank for the whole
    process. *)

val between : Symbol.t array -> Symbol.t array -> Symbol.t -> Symbol.t
(** [between from onto] maps [from.(i)] to [onto.(i)]; both sorted,
    distinct and of one length, so the renaming is order-preserving. *)
