(** Scheduler-state automata (Figure 2).

    Enforcing a dependency, the scheduler's state after each event is the
    remnant of the dependency yet to be enforced (Example 5).  States are
    therefore residuals of the dependency; transitions residuate by the
    events of its alphabet.  Distinct-looking residuals that are
    semantically equal are merged, so the automaton is the quotient the
    paper alludes to in Theorem 1.

    The automaton doubles as (a) the centralized scheduler's transition
    table, (b) the source of [Π(D)] path enumeration (Definition 3), and
    (c) the completability test ("can this state still reach ⊤?") that a
    safe scheduler needs to avoid dead ends. *)

type state = int

type t

val build : Expr.t -> t
(** Breadth-first residuation closure from the dependency, merging
    semantically equal states (exact over the dependency's alphabet).
    When {!Intern.enabled}, states dedup through a hash table keyed on
    the interned canonical form with a FIFO frontier.  Over a
    {!small_alphabet}, a state's identity is its denotation signature:
    which traces of the alphabet's universe, enumerated once per build,
    satisfy it.  States dedup through a second table keyed on it,
    accepting states are those every trace satisfies and dead ones
    those none does.  The result — states, numbering, edges, flags —
    is identical to {!For_testing.build_naive}, which compares states
    with {!Equiv}.
    Also when enabled, results are memoized keyed structurally on the
    dependency, so a repeated build returns the same value.  Behind that
    exact memo sits one keyed on the dependency's {!Shape}: a
    dependency that an order-preserving renaming carries onto an
    earlier one gets the earlier automaton renamed, equal to a fresh
    build, with no residuation.  Both memos are emptied by
    {!Intern.clear_memos}. *)

val small_alphabet : Symbol.Set.t -> bool
(** Whether a dependency over these symbols gets semantic state
    identity (equivalence over the trace universe: at most 4 symbols,
    633 traces); larger alphabets identify states by their syntactic
    canonical form. *)

val num_states : t -> int
val alphabet : t -> Literal.t list
(** The literals of [Γ_D], the edge labels. *)

val step : t -> state -> Literal.t -> state
(** Transition; literals outside the alphabet leave the state unchanged
    (Residuation 6). *)

val run : t -> Trace.t -> state
(** Fold [step] from the initial state. *)

val is_dead : t -> state -> bool
(** The state is semantically [0]: the dependency has been violated. *)

val can_complete : t -> state -> bool
(** Some continuation leads to an accepting state. *)

val accepted_paths : t -> Trace.t list
(** [Π(D)]-style enumeration over [Γ_D]: all event sequences (no symbol
    repeated) whose residual chain ends at an accepting state
    (Definition 3). *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing of states and transitions, as in Figure 2. *)

val to_dot : t -> string
(** Graphviz rendering. *)

val required_literals : t -> state -> Literal.Set.t
(** Literals that occur on {e every} accepting path from the state: once
    the scheduler is in this state, these events are obligations — the
    basis for proactively triggering triggerable events ("the scheduler
    causes the events to occur when necessary", Example 4). *)

(** {2 Test hooks} *)

module For_testing : sig
  val build_naive : Expr.t -> t
  (** The original quadratic construction (linear-scan dedup, list-append
      frontier, memo-free residuation) — the differential-testing oracle
      and the "before" leg of the benches. *)

  val stats : unit -> (string * int) list
  (** [built]: automata constructed by residuation since the last
      {!Intern.clear_memos}; [renamed]: automata obtained by renaming the
      automaton of an earlier dependency of the same shape. *)

  val initial : t -> state
  val state_nf : t -> state -> Nf.t
  val state_expr : t -> state -> Expr.t

  val is_accepting : t -> state -> bool
  (** The state is semantically [⊤]: the dependency is already satisfied
      whatever happens next. *)

  val transitions : t -> (state * Literal.t * state) list
end
