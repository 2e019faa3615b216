(** Catalog of intertask dependencies from the workflow literature.

    The paper's running examples are Klein's primitives [e → f] and
    [e < f] (Section 3.2); the same algebra also expresses the standard
    dependency vocabulary of Attie et al. [2], ACTA [3], and Klein [10],
    which this module provides as ready-made constructors over the
    conventional significant events of a task [t]: [s_t] (start),
    [c_t] (commit), and [a_t] (abort).

    Each constructor documents the informal reading and the formal
    expression.  All results are plain {!Expr.t} dependencies. *)

(** {1 Klein's primitives over bare events} *)

val requires : Literal.t -> Literal.t -> Expr.t
(** Klein's [e → f]: if [e] occurs then [f] occurs (before or after):
    [ē + f] (Example 2). *)

val precedes : Literal.t -> Literal.t -> Expr.t
(** Klein's [e < f]: if both occur, [e] precedes [f]:
    [ē + f̄ + e·f] (Example 3). *)

val d_arrow : Expr.t
(** The paper's [D→ = ē + f] over events [e], [f]. *)

val d_lt : Expr.t
(** The paper's [D< = ē + f̄ + e·f] over events [e], [f]. *)

(** {1 Standard intertask dependencies}

    [t1] and [t2] name tasks; events are [s_ti], [c_ti], [a_ti]. *)

val commit_order : string -> string -> Expr.t
(** Commit dependency (CD): if both commit, [t1] commits first:
    [c1 < c2]. *)

val strong_commit : string -> string -> Expr.t
(** Strong-commit (SCD): if [t1] commits, [t2] commits: [c1 → c2]. *)

val abort_dependency : string -> string -> Expr.t
(** Abort dependency (AD): if [t1] aborts, [t2] aborts: [a1 → a2]. *)

val weak_abort : string -> string -> Expr.t
(** Weak-abort (WD): if [t1] aborts and [t2] commits, [t2]'s commit
    precedes [t1]'s abort: [ā1 + c̄2 + c2·a1]. *)

val termination_order : string -> string -> Expr.t
(** Termination dependency (TD): [t2]'s terminal event follows [t1]'s:
    conjunction of the four orderings between [{c1,a1}] and [{c2,a2}]. *)

val exclusion : string -> string -> Expr.t
(** Exclusion (EX): at most one of the two commits: [c̄1 + c̄2]. *)

val begin_order : string -> string -> Expr.t
(** Begin dependency (BD): [t2] cannot start until [t1] starts:
    [s̄2 + s1·s2]. *)

val begin_on_commit : string -> string -> Expr.t
(** Begin-on-commit (BCD): [t2] cannot start until [t1] commits:
    [s̄2 + c1·s2]. *)

val serial : string -> string -> Expr.t
(** Serial dependency (SD): [t2] starts only after [t1] terminates:
    [s̄2 + c1·s2 + a1·s2]. *)

val compensate : string -> string -> Expr.t
(** Forced start on abort (compensation, as in sagas): if [t1] aborts,
    start [t2]: [ā1 + s2]. *)

val commit_after_prepared : string -> string -> Expr.t
(** Two-phase shape over RDA transactions (Figure 1): the coordinator
    [t1] commits only after participant [t2] has prepared:
    [c̄1 + p2·c1]. *)

val commit_on_commit : string -> string -> Expr.t
(** [t2] commits only after [t1] commits: [c̄2 + c1·c2] — the decision
    phase of two-phase commit. *)

val conditional_existence : string -> string -> string -> Expr.t
(** Conditional existence: if [t1] commits and [t2] does not, run [t3]:
    [c̄1 + c2 + s3] — the shape of dependency (3) of Example 4. *)

(** {1 The travel workflow of Example 4 / Example 12} *)

val travel_workflow : ?cid:string -> unit -> (string * Expr.t) list
(** The three dependencies of Example 4 over tasks [buy], [book],
    [cancel]; with [?cid] the parametrized variant of Example 12
    (events like [s_buy(c42)]). *)

val named : (string * Expr.t) list
(** A selection of catalog instances over tasks [t1], [t2], used by
    benches and the guard showcase. *)
