open Wf_core
open Wf_tasks

(** The centralized dependency-centric scheduler — the baseline the
    paper argues against ("that approach would suffer from all the
    problems attendant to centralization", Section 4) and the style of
    the earlier automaton-based approach [2].

    All dependencies live at site 0 as residual automata (Figure 2 /
    Example 5).  Every attempt travels to the center and back; the
    center accepts an event iff every affected residual stays
    completable, parks it otherwise, and rejects it once no future can
    make it acceptable.  Triggerable events are triggered when a
    residual requires them on every accepting path.

    The run shell — config, network and channel, journal and its
    medium, arrivals and admission, closing protocol, result — is the
    distributed engine's ({!Event_sched}, {!Ground.closing}), so the two
    differ only in how they decide.  Center-specific details:
    - the center journals every input and syncs every append (its
      occurrence log is durable by assumption); a crash of site 0
      recovers by checkpoint + replay with commits, sends, trace records
      and [on_event] muted;
    - its one storage medium seeds its faults from [seed lxor
      0x53544F52], and its [Store_salvage] records, like its
      [Store_fault] records, carry [actor = "center"];
    - admission verdicts key on site 0's queue depth, the congested
      resource;
    - [Assim] records carry a fingerprint of the joint
      residual-automaton state as the guard id. *)

val run : ?config:Event_sched.config -> Workflow_def.t -> Event_sched.result

(** {2 Test hooks} *)

(** The center's journaled input and its checkpoint. *)
type c_input =
  | C_attempt of Literal.t * Literal.t list
  | C_occurred of Literal.t
  | C_reject of Literal.t

type c_snapshot = {
  cs_states : Automaton.state list;
  cs_parked : (Literal.t * Literal.t list) list;
  cs_triggered : Literal.Set.t;
  cs_decided : Symbol.t list;
}

module For_testing : sig
  val input_codec : c_input Wf_store.Binio.t
  val snapshot_codec : c_snapshot Wf_store.Binio.t

  val decided_checkpoint : Symbol.t list -> string
  (** The encoded checkpoint of a center that decided [syms], in that
      order, and holds nothing else: its decided table is filled the
      way a run fills it and snapshotted the way a run snapshots it. *)
end
