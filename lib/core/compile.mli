(** Workflow compilation: from dependencies to localized event plans.

    This is the synthesis step the title promises: each event of the
    workflow receives (a) its guard — the conjunction of [G(D, e)] over
    the dependencies mentioning it — and (b) the set of symbols whose
    occurrences it must hear about, i.e. the message subscriptions the
    paper's second prerequisite of Section 4 ("setting up messages so
    that the relevant information flows from one event to another").
    Much of the symbolic reasoning thus happens once, at compile time
    (Section 6: "much of the required symbolic reasoning can be
    precompiled"). *)

type event_plan = {
  literal : Literal.t;
  guard : Guard.t;
  watched : Symbol.Set.t;
      (** symbols (other than the event's own) mentioned by the guard *)
}

type t

val compile : Expr.t list -> t
(** Each dependency's guards come from one {!Synth.guards} call, so
    renamed copies of a dependency are synthesized once; an event's
    guard conjoins its dependencies' guards in dependency order.
    When {!Intern.enabled}, memoized keyed structurally on the
    dependency list: a repeated call returns the same value until
    {!Intern.clear_memos}.  With interning disabled every call compiles
    afresh. *)

val dependencies : t -> Expr.t list
val alphabet : t -> Symbol.Set.t
val plan : t -> Literal.t -> event_plan
(** Plan for a literal; a literal no dependency mentions gets guard [⊤]
    and no subscriptions. *)

val plans : t -> event_plan list
(** Plans for every mentioned literal. *)

val pp : Format.formatter -> t -> unit
