(** Compiled guards: residuation transition tables.

    A synthesized guard's behavior under assimilation
    ({!Guard.assimilate_occurred} / {!Guard.assimilate_promise}) is a
    finite automaton over the guard's own symbols — assimilation never
    introduces a symbol, so the alphabet is closed for ground guards.
    [compile] explores that automaton once (states deduplicated on the
    guard's canonical form) and flattens it into an immutable int
    table: [state × input → state], where each symbol contributes four
    inputs ([□x], [□x̄], [◇x], [◇x̄]), plus per-state verdict bitsets
    (enabled / violated).  Assimilating a message then costs
    one array read instead of a DNF rewrite.

    {b Closed-alphabet precondition}: a table is valid only while the
    guard's symbol set is fixed.  Parametrized guards grow symbols as
    fresh tokens arrive, so [Fleet] compiles each template guard once
    over a single binding's marked symbols and steps every binding
    through it, while [Param_sched] compiles no table and stays the
    symbolic oracle.

    {b Soundness of decisive verdicts}: [Enabled]/[Violated] mean the
    residual is syntactically ⊤/0 — true (false) in {e every}
    completion consistent with the assimilated knowledge.  Restricting
    the future (reservations, never-sets) preserves both, so
    {!view_status} answers a decisive state at once and leaves an
    [Open] one to the status memo (coverage-[True] guards such as
    [□x + □x̄ + ¬x|¬x̄] stay [Open] syntactically).

    The symbolic engine remains the differential oracle: switch the
    tables off with {!set_enabled} and every caller degrades to the
    symbolic path (the QCheck equivalence suite and the model-checker
    pinned counts run both ways). *)

type state = int
type verdict = Enabled | Violated | Open

type t
(** A compiled table.  Immutable; shared freely across actors and
    instances evaluating the same guard. *)

(** {1 Compilation} *)

val lookup : Guard.t -> t option
(** Memoized [compile], keyed on the interned {!Guard.uid}; fleets of
    instances sharing a guard pay compilation once.  A guard missing
    from that memo is looked up by its {!Shape}: when an
    order-preserving renaming carries it onto an earlier guard, the
    earlier table is renamed (alphabet, a fresh status memo, the
    looked-up guard as its root and the other residual guards renamed
    when first read; the transition and verdict arrays are shared),
    equal to a fresh [compile] with no residuation.  Always [None]
    while tables are {!set_enabled} off or {!Intern.enabled} is off.
    Both memos are dropped by {!Intern.clear_memos}. *)

val set_enabled : bool -> unit
(** Global switch (default on).  Off: [lookup] answers [None]
    everywhere, so every evaluation takes the symbolic leg. *)

(** {1 Inspection} *)

val initial : t -> state
val num_states : t -> int
val verdict : t -> state -> verdict

(** {1 Stepping} *)

val step_occurred : t -> state -> Literal.t -> state
(** Assimilate an occurrence announcement [□x].  Symbols outside the
    table's alphabet are a no-op, like the symbolic engine. *)

val occ_input : t -> Symbol.t -> Literal.polarity -> int option
(** Resolve an occurrence announcement to its input column, or [None]
    when the symbol is outside the table's alphabet.  Fleets of
    instances sharing one table resolve each (symbol, polarity) once
    and then step every instance with {!step_input} — one array read,
    no per-step hash lookup. *)

val step_input : t -> state -> int -> state
(** Step by a pre-resolved input column (see {!occ_input}).  The column
    must come from the same table. *)

(** {1 Cells} *)

type cell
(** A guard together with its table, for a holder that queries it many
    times: a run plan holds one per actor guard and per vetted attempt
    guard, so the runs on it look each table up once. *)

val cell : Guard.t -> cell
(** A cell that has not looked its table up yet. *)

val cell_guard : cell -> Guard.t

val cell_symbols : cell -> Symbol.Set.t
(** {!Guard.symbols} of the guard, computed once. *)

val cell_table : cell -> t option
(** [lookup (cell_guard c)], remembered after the first query that
    finds the tables on.  While the tables or the interned engine are
    switched off it answers [None] and remembers nothing. *)

(** {1 Status memo}

    An [Open] state leaves the decision to {!Knowledge.status}.  That
    verdict depends only on the table state and, per alphabet symbol,
    its fate (undecided, occurred [±], promised [±]) and whether it is
    reserved: the state carries everything order-sensitive.  Each
    table with at most 15 symbols memoizes the verdict per
    (per-symbol code, state) pair, so the symbolic evaluation runs once
    per distinct pair.  The memo is derived data: {!Intern.clear_memos}
    empties it, and while the tables or the interned engine are
    switched off every query below evaluates symbolically. *)

type view
(** A knowledge and reservation set as one table sees them: the
    occurrence-prefix state, the outstanding promises, the state the
    knowledge reaches (occurrences in seqno order, then promises), the
    per-symbol code, and the highest seqno and the set of symbols among
    the occurrences. *)

val view : t -> reserved:Symbol.Set.t -> Knowledge.t -> view
(** Build the view from scratch: one {!Knowledge.fate_of} per alphabet
    symbol, the occurrences sorted and replayed, then the promises. *)

(** One input to a knowledge or reservation set. *)
type input =
  | Occurred of Literal.t * int  (** {!Knowledge.occurred} with this seqno *)
  | Promised of Literal.t  (** {!Knowledge.promised} *)
  | Reserved of Symbol.t  (** the symbol joined the reservations *)
  | Released of Symbol.t  (** the symbol left the reservations *)

val step_view : t -> view -> reserved:Symbol.Set.t -> Knowledge.t -> input -> view
(** [step_view t v ~reserved k input], where [k] and [reserved] are the
    values after [input] was applied to the ones [v] was taken of:
    equal ({!For_testing.view_equal}) to [view t ~reserved k], by one
    {!step_input} of the occurrence prefix, one promise replay or one
    code field.
    Two cases rebuild instead: an occurrence whose seqno is not above
    every occurrence the view holds (states replay occurrences in
    seqno order) or of a symbol already occurred, and a second promise
    on one symbol.  Inputs on symbols outside the alphabet move only
    the knowledge and reservations the view answers from. *)

val view_status : t -> view -> Knowledge.status
(** [Knowledge.status ~reserved k g] for the compiled guard [g]: a
    decisive verdict answers at once, an [Open] state through the
    memo. *)

val status_if_occurred : t -> view -> Literal.t list -> Knowledge.status
(** The status after recording each literal as occurred with seqno
    [max_int] ({!Knowledge.occurred}), in order. *)

val status_if_promised : t -> view -> Literal.t list -> Knowledge.status
(** The status after recording each literal as promised. *)

val symbolic_status :
  ?reserved:Symbol.Set.t -> ?never:Symbol.Set.t -> Knowledge.t -> Guard.t ->
  Knowledge.status
(** {!Knowledge.status}, counted in [status_symbolic]: the path for
    guards without a table or with a too-wide alphabet, and for
    [~never] queries, which the code does not cover. *)

(** {1 Pursuit memo}

    A parked attempt whose guard is [Unknown] pursues reservations
    ({!Knowledge.needs}) and promises from every undecided literal
    whose occurrence or promise would make the guard [True].  Both are
    functions of the per-symbol code (fate and reservation) and of the
    {!Knowledge.pending_status} of each pending term of the guard: the
    code is all they read of a symbol, the pending statuses all they
    read of the occurrence order, and a probe's occurrence (stamped
    last) or promise moves each pending status by the term alone.  So
    each table with a status memo also memoizes its pursuits under that
    key.  The table state after the occurrences is not the key:
    canonical residuals can merge occurrence orders that the pending
    terms tell apart.  The caller applies its own per-call filters
    (reservations held or backed off, requests already sent). *)

type pursuit = {
  reserves : Symbol.t list;
      (** symbols {!Knowledge.needs} asks to reserve, ascending *)
  enabling : Literal.t list;
      (** undecided literals whose occurrence (seqno [max_int]) or
          promise makes the status [True]: ascending symbol, [Pos]
          before [Neg] *)
}

val pursuit : t -> view -> pursuit
(** The view's pursuit, through the memo; while the memo is off (tables
    or the interned engine switched off, or too wide a key: 3 bits per
    symbol and 2 per pending term must fit 62) it is
    {!symbolic_pursuit}. *)

val symbolic_pursuit : reserved:Symbol.Set.t -> Knowledge.t -> Guard.t -> pursuit
(** The same pursuit of any guard, evaluated symbolically (the probes
    count in [status_symbolic]). *)

(** {1 Observability} *)

val stats : unit -> (string * int) list
(** [compiled_guards] (guards {!lookup} has answered, whether
    compiled, renamed or uncompilable), [compiled_states] (states of
    tables built by [compile]), [renamed_guards] and [renamed_states]
    (tables and their states obtained by renaming a table of the same
    shape), [uncompilable], and the status-memo counters
    [status_memo_entries], [status_memo_misses] and [status_symbolic]
    (evaluations that bypassed the memo), and the pursuit-memo
    counters [pursuit_memo_entries] and [pursuit_memo_misses].  All are
    process-wide (no run's metrics registry sees them) and reset by
    {!Intern.clear_memos}. *)

(** {2 Test hooks} *)

module For_testing : sig
  val compile : ?max_states:int -> Guard.t -> t option
  (** Build the table by exhaustive residuation from the guard.  [None]
      when the state space exceeds [max_states] (default 1024) or the
      alphabet is unreasonably wide — callers then stay symbolic. *)

  val alphabet : t -> Symbol.t list

  val guard_of : t -> state -> Guard.t
  (** The residual guard a state denotes ([guard_of t (initial t)] is the
      compiled guard itself). *)

  val step_promised : t -> state -> Literal.t -> state
  (** Assimilate a promise [◇x]. *)

  val view_equal : view -> view -> bool
  (** Same occurrence-prefix state, outstanding promises, state, code,
      highest seqno and occurred symbols. *)

  val fingerprint : t -> int
  (** Canonical fingerprint of alphabet, transitions, and verdict
      bitsets, for pinned regression tests. *)

  type audit = {
    hits_checked : int;
    mismatches : int;
    pursuit_hits_checked : int;
    pursuit_mismatches : int;
    views_checked : int;
    view_mismatches : int;
  }

  val audit_status_memo : (unit -> 'a) -> 'a * audit
  (** [audit_status_memo f] runs [f] with every memo hit and every
      stepped view checked: a status hit is also evaluated by
      {!Knowledge.status} on the knowledge that asked, a pursuit hit is
      recomputed from {!Knowledge.needs} and {!Knowledge.status} (neither
      counted in [status_symbolic]), a view {!step_view} stepped (not
      rebuilt) is compared with a fresh {!view}, and a different answer
      counts as a mismatch.  This checks the claim each memo rests on,
      that every knowledge with the same key gets the same answer, and
      the one stepping rests on, over whatever workload [f] runs.  Misses
      need no check: they are evaluated on the asking knowledge. *)
end
