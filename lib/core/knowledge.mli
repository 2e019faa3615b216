(** An actor's knowledge about remote events, and guard evaluation
    under that knowledge (Section 4.3).

    Each actor accumulates what it has heard: [□x] announcements (with a
    global order stamp) and [◇x] promises.  A guard is then [`True]
    (may fire now, and the decision is stable), [`False] (can never
    fire), or [`Unknown].

    Announcements carry sequence numbers so that the evaluation of
    order-sensitive pending terms ([◇(f·g)]) is independent of message
    arrival order — this realizes the paper's remark that "the
    underlying execution mechanism should provide a consistent view of
    the temporal order of events" (Section 6).

    Reservations model the [¬]-consensus of Section 4.3: while an actor
    holds a reservation on a symbol, that symbol is guaranteed to remain
    undecided, so constraints satisfied by "still undecided" evaluate to
    true. *)

type fate =
  | Occurred of Literal.polarity * int  (** polarity that occurred, seqno *)
  | Promised of Literal.polarity

type t

val empty : t
val occurred : Literal.t -> seqno:int -> t -> t
(** Record [□x].  Overrides a prior promise; recording both polarities
    of one symbol raises [Invalid_argument]. *)

val promised : Literal.t -> t -> t
(** Record [◇x]; ignored if the symbol is already decided. *)

val fate_of : t -> Symbol.t -> fate option
val decided : t -> Symbol.t -> bool
val seqno_of : t -> Symbol.t -> int option
val symbols : t -> Symbol.t list

val equal : t -> t -> bool
(** Field-by-field equality of the accumulated fates; used by the
    recovery suite to compare a replayed actor against the original. *)

type status = True | False | Unknown

val status :
  ?reserved:Symbol.Set.t -> ?never:Symbol.Set.t -> t -> Guard.t -> status
(** Evaluate a guard.  [True] means it holds at this instant and the
    decision is stable against anything the actor does not control;
    [False] means no product can ever hold.  [True] detection is exact:
    a guard holds iff every situation vector consistent with the
    knowledge is covered by the union of its products.

    [reserved] marks symbols held undecided by the reservation protocol.
    [never] marks symbols of universally-quantified fresh parametrized
    instances: their events never occur (situation [D], Section 5.2). *)

val pending_status : ?never:Symbol.Set.t -> t -> Term.t -> status
(** Status of an order-sensitive pending term [◇τ] of a product:
    [True] once all of [τ]'s literals occurred in [τ]'s order, [False]
    once one occurred with the wrong polarity or out of order (or an
    earlier one is still missing), else [Unknown]. *)

type needs = {
  unresolved : int;  (** undecided constraints remaining in the product *)
  promises : Literal.t list;
      (** viable promise targets, listed only when the promise is the
          product's single missing piece (credible-offer rule) *)
  reserves : Symbol.t list;
      (** symbols whose reservation would discharge a [¬]-style
          constraint of the product *)
}

val needs :
  ?reserved:Symbol.Set.t -> ?never:Symbol.Set.t -> t -> Guard.t -> needs list
(** Per still-[Unknown] product: the protocol actions that could advance
    it.  Drives the actor's pursuit of promises and reservations. *)
