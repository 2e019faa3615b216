(** Event attributes (Section 2 and [14]).

    The scheduler's latitude with an event depends on its attributes:
    - {e controllable}: the agent asks permission before performing it
      (e.g. [commit]); an uncontrollable event is merely announced
      (e.g. [abort]) and the scheduler "has no choice but to accept" it.
    - {e triggerable}: the scheduler may proactively cause it (e.g.
      [start] of a compensation task).
    - {e rejectable}: the scheduler may permanently forbid it.
    - {e delayable}: the scheduler may park it while its guard is
      undecided; a non-delayable attempt must be decided immediately. *)

type t = {
  controllable : bool;
  triggerable : bool;
  rejectable : bool;
  delayable : bool;
}

val default : t
(** Controllable, rejectable, delayable, not triggerable — e.g.
    [commit]. *)

val uncontrollable : t
(** Announced only: not rejectable, not delayable — e.g. [abort]. *)

val triggerable : t
(** Controllable and additionally triggerable — e.g. the [start] of a
    subtask the scheduler initiates. *)
