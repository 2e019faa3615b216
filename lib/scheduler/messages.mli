open Wf_core

(** The wire protocol among event actors (Section 4.3 and [14]).

    - [Announce]: [□x] — the event occurred; carries the global order
      stamp so receivers reconstruct a consistent temporal view.
    - [Promise] / [Promise_request]: the [◇] consensus machinery of
      Example 11: a requester offers its own eventualities; the grantee
      replies with a conditional promise and thereby obliges itself.
    - [Reserve] / [Reserve_granted] / [Reserve_denied] / [Release]: the
      [¬]-consensus: while a reservation is held, the reserved symbol
      stays undecided, so the holder may fire through a [¬f]-style
      constraint soundly.
    - [Recovered]: the actor-level half of the epoch handshake — a
      replayed actor tells its watched peers it is back (with its new
      epoch); a peer that has already decided its fate re-announces it,
      and the [Announce] duplicate check absorbs re-announcements the
      journal had in fact preserved. *)

type t =
  | Announce of { lit : Literal.t; seqno : int }
  | Promise_request of {
      target : Literal.t;
      requester : Literal.t;
      offers : Literal.t list;
    }
  | Promise of { lit : Literal.t; to_ : Literal.t }
  | Reserve of { sym : Symbol.t; requester : Literal.t }
  | Reserve_granted of { sym : Symbol.t; to_ : Literal.t }
  | Reserve_denied of { sym : Symbol.t; to_ : Literal.t }
  | Release of { sym : Symbol.t; holder : Literal.t }
  | Recovered of { sym : Symbol.t; epoch : int }

val tag : t -> int
(** The constructor's index into {!labels}, so per-kind counters can be
    resolved once and indexed per message. *)

val labels : string array
(** Short names for statistics ("announce", "promise", ...), by {!tag}. *)

val symbols : t -> Symbol.t list
(** Every symbol the message mentions (literals contribute their
    symbol).  The model checker's independence relation extends a
    delivery's footprint with these, so two deliveries commute only when
    the payloads, too, touch disjoint coupling classes. *)
