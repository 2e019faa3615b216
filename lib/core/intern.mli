(** Hash-consing of the symbolic core, and the shared memo registry.

    Guard synthesis, residuation, and automaton construction repeatedly
    compare and hash structural values — literals, sequence terms, and
    normal forms.  This module assigns each distinct value a small
    integer id, so equality on interned values is integer equality and a
    [(id, id)] pair is a perfect O(1) memo key.  Interning is recursive:
    a term is keyed by the ids of its literals, a product by the ids of
    its terms, a normal form by the ids of its products, so the cost of
    interning a value already seen is one shallow hash per layer.

    Ids are process-wide and live for the whole run: the memo tables of
    {!Residue} and {!Synth} key on them, which is what lets every event
    of a run (and every literal of {!Synth.guards}) share residual
    work instead of rebuilding a per-call memo.

    The tables only ever grow.  {!clear_memos} empties the registered
    derived-result memos (it does {e not} renumber ids, so cached ids
    held by callers stay valid); benches use it to measure cold-start
    cost, and long-lived embedders can call it between workflows.

    {!set_enabled} [false] routes {!Residue.nf}, {!Synth.guard} and
    {!Automaton.build} through their naive, memo-free implementations —
    the differential-testing oracle and the "before" leg of
    [bench --json]. *)

type id = int
(** Interned tag: equal values get equal ids, distinct values distinct
    ids (within one process). *)

val literal : Literal.t -> id
val nf : Nf.t -> id

val ids : id list -> id
(** Intern an arbitrary id list (order-sensitive), for derived values
    keyed on a set of already-interned parts — e.g. {!Synth}'s γ
    literal sets. *)

val enabled : unit -> bool
(** Whether optimized (interned + memoized) kernels are in force.
    Defaults to [true]. *)

val set_enabled : bool -> unit
(** Toggle the optimized kernels; [false] restores the naive oracle
    implementations everywhere.  Used by benches for before/after
    measurements and by differential tests. *)

val register_clearer : (unit -> unit) -> unit
(** Modules owning a derived memo table register a reset hook here. *)

val clear_memos : unit -> unit
(** Empty every registered derived memo table (interned ids survive). *)

module Pair_tbl : Hashtbl.S with type key = id * id
(** Hash tables keyed by a pair of interned ids — the memo-key shape
    shared by {!Residue}, {!Synth}, and {!Automaton}. *)

(** {2 Test hooks} *)

module For_testing : sig
  val term : Term.t -> id

  val stats : unit -> (string * int) list
  (** Current table populations:
      [("literals", _); ("terms", _); ("products", _); ("nfs", _)]. *)
end
