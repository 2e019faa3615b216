(** Reliable, exactly-once delivery over the (possibly faulty) network,
    surviving site crashes.

    {!Wf_sim.Netsim} with a {!Wf_sim.Netsim.fault_config} may drop,
    duplicate, or reorder messages — and crash whole sites — yet the
    schedulers' protocol messages ([Announce], [Promise], [Reserve],
    ...) must each take effect exactly once, or guard knowledge diverges
    across actors.  This module layers the classic recipe on top of the
    raw network:

    - every logical message carries an id unique within its
      [(origin, epoch)];
    - the receiver acknowledges {e every} Data copy (acks are lossy
      too) but hands the payload to the application at most once,
      suppressing duplicates by [(origin, epoch, id)];
    - the sender retransmits unacknowledged messages with exponential
      backoff ([rto], [2·rto], [4·rto], ..., capped at 60) up to 30
      times, then parks the message as a dead letter (counted
      ["chan_gave_up"]).

    {2 Epochs and the restart handshake}

    The channel keeps what it knows about a message in the {e stream}
    of its [(origin, epoch)]: the origin's [outbox] of entries by id,
    the receivers' dedup [floor] and the [seen] ids above it, and the
    ids [queued] in some mailbox.  An outbox entry is [Blocked]
    (waiting for credit), [Sent] (being retransmitted until acked) or
    [Dead] (given up, kept for revival).  Crash recovery splits this
    state into a durable and a volatile half.  Durable (journaled by
    assumption, so it survives a crash): the outbox in every state,
    the dedup floor and [seen] set, and the per-site {e epoch}
    counter.  Volatile: the per-site message-id counter, which
    restarts from 0, and under flow control the mailboxes with their
    [queued] ids and the credit ledger.

    On restart a site bumps its epoch and broadcasts
    [Hello {origin; epoch; window}] (control traffic, exempt from crash
    injection).  Because the dedup key is the full
    [(origin, epoch, id)] triple, a post-restart message reusing id 0
    is a {e distinct} message from the pre-crash id 0 and is never
    suppressed — the duplicate-after-restart corner.  Conversely a
    retransmitted pre-crash message keeps its original epoch, so copies
    that already arrived are still suppressed.

    A peer that observes a fresh epoch (via Hello, or a Data stamped
    with a newer epoch than it had seen) revives its own dead letters
    addressed to the restarted site: retries reset, original key kept
    (counted ["chan_revived"]).  A transfer still retrying when the
    fresh epoch arrives is restarted the same way at its give-up, since
    the sender records the addressee's epoch whenever a transfer starts
    or restarts.  In-flight messages need no handshake —
    deliveries to a crashed site are dropped by the simulator and the
    normal retransmission timers recover them.

    {2 Exactly-once links}

    The protocol runs only where the network can lose or repeat a
    message.  A link that {!Wf_sim.Netsim.exactly_once} admits, and
    that no mailbox can refuse (under flow control every cross-site
    link is lossy, since a full mailbox refuses messages), carries a
    send as one [Data] with no id ([mid = -1]), no outbox entry, no
    retransmit timer and no ack; the receiver hands it to the handler
    without a dedup probe (counted ["chan_direct_sends"]).  With
    [no_faults], or reordering alone, every link is such a link; with a
    crash probability none is, since a crashed site drops {e local}
    deliveries as well; with loss, duplication or a partition only the
    same-site links and the links no partition separates stay direct.
    Both ends decide from the same fault config, so they always agree.

    All timers run on the network's virtual clock and all randomness is
    the network's, so reliable delivery over a faulty network remains
    deterministic and replayable from [(seed, fault_config)].

    {2 Flow control (optional)}

    With a {!Flow.config} the channel becomes overload-safe.  Senders
    transmit Data only inside a receiver-granted credit window and
    park the excess in a per-link backlog; receivers hold
    arrivals in a bounded inbound mailbox consumed at [service_time]
    pace, acknowledge {e at consumption} (so a crash wipes only
    unacked entries and retransmission redelivers them), and return
    credits in batches, on the consumption acks.  A full mailbox
    refuses messages unacknowledged, so the [mailbox_cap] bound holds
    even while reset windows briefly over-grant.  Credit state is
    volatile: windows are re-announced with [reset] grants after every
    epoch bump (they overwrite, never top up, so duplicated or
    reordered announcements cannot inflate a window), and a blocked
    sender whose grants were all lost force-transmits one message after
    [stall_timeout] with an empty window — so flow control never
    deadlocks and never breaks exactly-once.  A site's {!depth} (its
    mailbox plus its credit-blocked sends) is what admission keys on.
    Priority sends and the restart handshake bypass both gates: control
    traffic is never queued behind data.

    {2 Fused frames}

    Acks, grants and Hellos are the channel's own traffic, so a control
    frame that would leave at the same instant, for the same peer, as a
    frame the channel sends anyway rides on that frame instead.  Every
    fused frame carries exactly the fields of the frames it replaces:
    keys, ids, epochs and retransmit timers are unchanged.

    - {b A grant rides on the consumption's ack.}  The receiver computes
      the batch grant before it consumes a message, and the ack of that
      consumption carries it ([Ack.grant]).  When the consumption
      empties the mailbox it also carries whatever that origin's partial
      batch owes; partial batches of other origins still leave as one
      [Credit] each when the next drain tick finds the mailbox dry.  A
      lost ack loses its grant like a lost [Credit] did, and the
      blocked-sender override heals it.
    - {b The restart's window rides on Hello.}  A restarted receiver
      sends each peer one [Hello] whose [window] the peer applies as a
      [reset] grant (overwrite, never top up) before it notes the new
      epoch.  Peers still re-announce their own windows as
      [Credit {reset}].
    - {b An ack rides on a reply.}  Both consumption paths (the
      mailbox and the unqueued one) hold the ack across the synchronous
      handler call.  If the handler's send makes a {e first}
      transmission to the acked origin, the ack rides on it as
      [Acked]; otherwise the ack leaves as a plain [Ack] as soon as the
      handler returns.  A held ack never rides on a credit-blocked send,
      a retransmission or a revival, all of which leave outside the
      handler.  ["chan_acks"] still counts one ack per delivered copy.

    The receiver dedup set is pruned against a cumulative watermark
    per [(origin, epoch)] — ids are assigned densely, so entries at or
    below the watermark are redundant with it and a long fault-free
    run keeps O(reorder window) entries instead of O(messages).

    Counters in the network's {!Wf_obs.Metrics.t}: ["chan_direct_sends"],
    ["chan_retransmits"], ["chan_duplicates_suppressed"], ["chan_acks"],
    ["chan_gave_up"], ["chan_revived"]; histogram ["ack_latency"] (first
    send to ack).  Frames the protocol puts on the wire, by kind (a
    direct send counts only in ["chan_direct_sends"]):
    ["chan_frames_data"] (with or without a riding ack, retransmissions
    included), ["chan_frames_ack"], ["chan_frames_credit"],
    ["chan_frames_hello"]; ["chan_acks_piggybacked"] counts the acks that
    rode on a [Data].
    With flow control, the credit ledger's counters
    ["flow_credits_consumed"] (credits spent on first transmissions),
    ["flow_credits_granted"] (credits returned for consumed messages),
    ["flow_window_resets"] (reset grants: one per full window restated
    after an epoch bump), ["flow_sends_blocked"] (sends queued for credit),
    ["flow_credit_overrides"] (stall overrides),
    ["flow_mailbox_enqueued"] and ["flow_mailbox_rejects"]; gauges
    ["flow_max_backlog"] and ["flow_max_mailbox_depth"] (the highest
    per-site backlog and mailbox depth); histogram ["flow_queue_wait"]
    (mailbox entry to consumption).  The admission gate's [flow_*]
    metrics are {!Flow}'s. *)

type site = Wf_sim.Netsim.site

type 'a wire =
  | Data of { mid : int; epoch : int; origin : site; prio : bool; payload : 'a }
      (** [prio] rides the priority lane: never credit-gated, never
          mailbox-queued behind data *)
  | Acked of { ack_mid : int; ack_epoch : int; ack_grant : int; data : 'a wire }
      (** an [Ack] riding on the first transmission of [data] (a
          [Data]) to the acked origin; the receiver settles the ack
          first *)
  | Ack of { mid : int; epoch : int; grant : int }
      (** [grant] credits (0 without one) return with the ack *)
  | Hello of { origin : site; epoch : int; window : int }
      (** broadcast by a restarted site; triggers dead-letter revival.
          Under flow control [window] is the restarted receiver's full
          window for the addressee, applied as a [reset] grant *)
  | Credit of { grant : int; reset : bool }
      (** receiver-granted send credits; [reset] re-announces a full
          window after an epoch bump *)

type 'a t

val create : rto:float -> ?flow:Flow.config -> 'a wire Wf_sim.Netsim.t -> 'a t
(** One channel manager serves every site of the given network.
    [rto] is the initial retransmission timeout.  Each retransmission
    delay is scaled by a factor uniform in [0.9, 1.1], drawn
    deterministically from the channel's own RNG stream (split off the
    network's at creation) — senders that queued traffic behind the
    same partition desynchronize instead of retransmitting in lockstep
    storms when it heals.
    Registers a {!Wf_sim.Netsim.on_restart} hook that runs the epoch
    handshake; create the channel {e before} any layer whose restart
    hook relies on fresh epochs.
    [flow] enables credit-based flow control with bounded mailboxes;
    without it the channel behaves exactly as before (every queue
    unbounded, ack at arrival). *)

val send : ?priority:bool -> 'a t -> src:site -> dst:site -> 'a -> unit
(** Send with at-least-once retransmission; combined with receiver-side
    dedup the payload is processed exactly once — across restarts of
    either endpoint, as long as the destination eventually stays up.
    On an exactly-once link the send is a single direct [Data].
    [priority] (default false) takes the strict priority lane under
    flow control: the send bypasses the credit gate and the receiver
    consumes it immediately instead of queueing it in the mailbox —
    for recovery handshakes and checkpoint triggers that must never
    sit behind data.  Without flow control it is a no-op. *)

val on_receive : 'a t -> site -> (site -> 'a -> unit) -> unit
(** Install the application handler of a site.  The handler sees each
    payload at most once, with the sending site as first argument. *)

val epoch : 'a t -> site -> int
(** Current recovery epoch of the site (0 until its first restart). *)

val flow : 'a t -> Flow.t option
(** The admission gate when the channel was created with flow control. *)

val depth : 'a t -> site:site -> int
(** The site's queue depth under flow control: messages in its inbound
    mailbox plus its credit-blocked sends.  The admission gate keys on
    it ({!Flow.admit}). *)

(** {2 Test hooks} *)

module For_testing : sig
  val unacked : 'a t -> int
  (** Messages still awaiting acknowledgement (in flight or being
      retransmitted). *)

  val dead_letters : 'a t -> int
  (** Messages the sender gave up on; kept for revival on a peer Hello.
      Each give-up also emits a [Dead_letter] trace record, so spikes
      are attributable from the JSONL trace. *)

  val dedup_size : 'a t -> int
  (** Receiver dedup entries currently retained above the watermark —
      O(reorder window) on a fault-free run, not O(messages). *)

  val mailbox_depth : 'a t -> site -> int
  (** Messages queued in the site's inbound mailbox (flow control). *)

  val queued_keys : 'a t -> int
  (** Dedup keys of queued-not-yet-consumed messages, over all sites. *)

  val check : 'a t -> unit
  (** Check the channel's invariants between two network steps; raises
      [Failure] naming the first broken one.  Per stream: seen mids lie
      above the floor; queued mids above it and not seen; in the
      origin's current epoch the floor is below its mid counter; each
      outbox entry sits under its own key; a [Dead] entry has made
      every retry.  Under flow control: the [Blocked] entries are
      exactly the backlogs', each the very record in its outbox; a
      non-empty backlog has its stall check scheduled; the mailbox
      entries are exactly the queued keys, each mailbox within
      [mailbox_cap] and, at a live site, draining when non-empty;
      credits lie in [[0, credit_window]] and owed counts are not
      negative.  No ack is held. *)
end
