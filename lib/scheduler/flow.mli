(** Credit-based flow control and admission control.

    Every queue in the runtime stack used to be unbounded: channel
    outboxes, receiver mailboxes, parked backlogs.  A burst that
    outruns assimilation throughput then turns into memory blow-up and
    retransmit storms instead of degraded service.  This module is the
    shared ledger that bounds them:

    {b Credit windows.}  Each receiver grants every sender a window of
    [credit_window] send credits.  A sender consumes one credit per
    first transmission of a Data message and stops transmitting (the
    channel queues the send in a per-link backlog) when the
    window is exhausted.  The receiver returns credits in batches of
    [credit_batch] as messages are {e consumed} (handed to the
    application handler), not merely received, so the in-flight +
    queued total per sender is bounded by the window; the last
    consumption of a burst (the one that empties the mailbox) flushes
    the partial batch.  Grants ride on the consumption's ack, or
    travel alone as control traffic: they are never queued behind data
    and never wait on a crash-injected transition, so the system
    cannot livelock itself out of recovery.

    {b Epoch convergence.}  Credit state is volatile.  After a crash
    the restarted site's mailbox is gone and both sides' ledgers are
    stale, so windows are {e re-announced}: the restarted receiver
    sends a [reset] grant (window := full) to every peer on its restart
    Hello, and every
    peer that observes the new epoch re-announces its own full window
    back.  Reset grants overwrite rather than top up, so duplicated or
    reordered announcements cannot inflate the window.  A lost
    incremental grant is healed by the blocked-sender override: a
    sender stalled for [stall_timeout] with an empty window forcibly
    transmits one message (counted as [flow_credit_overrides]), which
    restarts the consume/grant cycle.  Deadlock is therefore
    impossible even under message loss.

    {b Bounded mailboxes.}  The receiver-side inbound mailbox holds at
    most [mailbox_cap] messages.  Arrivals beyond the cap are refused
    {e unacknowledged} — the sender's retransmission redelivers them
    later — so the bound holds even when epoch resets briefly
    over-grant credits.

    {b Admission control.}  [admit] is the scheduler-boundary gate: an
    attempt arriving while local queue depth (inbound mailbox +
    outbound backlog) is at or above [shed_watermark] is shed with a
    typed [Busy {retry_after}] verdict and a deterministic, seeded
    exponential backoff.  Every [probe_every]-th over-watermark
    request is admitted anyway, so shed attempts are eventually
    admitted and saturated runs drain to quiescence once arrivals
    stop.

    All decisions draw from one seeded RNG, so runs are reproducible;
    metrics land in the owner's registry under [flow_*] names and
    [Shed]/[Credit] records go to the trace sink. *)

type config = {
  mailbox_cap : int;  (** bound on a receiver's inbound mailbox *)
  credit_window : int;  (** per (sender, receiver) credit window *)
  credit_batch : int;
      (** consumptions per grant batch; [<= 0] means [credit_window / 2] *)
  shed_watermark : int;  (** admission high-watermark on local depth *)
  retry_base : float;  (** first [Busy] retry_after *)
  retry_backoff : float;  (** multiplier per consecutive shed *)
  retry_max : float;  (** retry_after cap *)
  probe_every : int;
      (** admit one of every N over-watermark requests (liveness);
          [<= 0] disables probing *)
  service_time : float;
      (** simulated time to consume one mailbox entry *)
  stall_timeout : float;
      (** blocked-sender override: transmit anyway after this long
          without credit *)
}

val default_config : config
(** mailbox_cap 64, credit_window 16, credit_batch 0 (= window/2),
    shed_watermark 48, retry 1.0 × 2.0^n capped at 30.0, probe_every 8,
    service_time 0.05, stall_timeout 20.0. *)

type verdict = Admitted | Busy of { retry_after : float }

type t

val create :
  ?config:config ->
  num_sites:int ->
  seed:int64 ->
  stats:Wf_obs.Metrics.t ->
  now:(unit -> float) ->
  ?tracer:(unit -> Wf_obs.Trace.sink option) ->
  unit ->
  t

val config : t -> config

(** {2 Sender side: credit ledger} *)

val try_acquire : t -> src:int -> dst:int -> bool
(** Consume one credit for a first transmission [src -> dst]; [false]
    when the window is empty (caller must queue the send in its
    backlog and call {!note_blocked}). *)

val note_blocked : t -> src:int -> unit
(** One more Data send queued in [src]'s outbound backlog. *)

val note_unblocked : t -> src:int -> unit
(** One queued send left [src]'s backlog (it was transmitted). *)

val on_grant : t -> src:int -> dst:int -> grant:int -> reset:bool -> unit
(** A credit grant from receiver [dst] arrived at sender [src];
    [reset] overwrites the window instead of topping it up. *)

val stalled : t -> src:int -> dst:int -> since:float -> bool
(** True when [src] has been blocked toward [dst] with an empty window
    since [since] for longer than [stall_timeout]: transmit one
    message anyway (credit override) to break a potential deadlock
    from lost grants.  Counts [flow_credit_overrides]. *)

(** {2 Receiver side: mailbox accounting and grant batching} *)

val mailbox_enqueue : t -> dst:int -> bool
(** Reserve a mailbox slot at [dst]; [false] when the mailbox is at
    [mailbox_cap] (refuse the message unacknowledged, the sender will
    retransmit).  Updates the [flow_max_mailbox_depth] gauge. *)

val mailbox_consumed : t -> dst:int -> origin:int -> int
(** A message from [origin] left [dst]'s mailbox and was handed to the
    application.  Returns the credit grant to send back to [origin]
    right now, with the consumption's ack: the batch once
    [credit_batch] consumptions are owed, and everything owed to
    [origin] when this was the mailbox's last message (0 = nothing
    yet).  Grants therefore flush at the last consumption of a burst. *)

val flush_grant : t -> dst:int -> origin:int -> int
(** Any partial grant batch owed by [dst] to [origin].  The channel
    asks for it when the mailbox is found dry, so a batch left by
    another origin's last consumption is never stranded. *)

val reset_window : t -> receiver:int -> peer:int -> int
(** Re-announce a full window from [receiver] to [peer] after an epoch
    bump: clears the consumed-since-grant counter and returns the
    window size to send as a [reset] grant. *)

val on_restart : t -> site:int -> unit
(** The site restarted: its volatile mailbox is gone; zero its depth
    and consumed counters (the channel clears the actual queues). *)

(** {2 Admission control} *)

val depth : t -> site:int -> int
(** Local queue depth at [site]: inbound mailbox + outbound backlog. *)

val admit :
  t -> site:int -> ?actor:string -> ?depth:int -> first:float -> unit -> verdict
(** Admission verdict for an attempt at [site].  [depth] overrides the
    measured local depth (used when the congested resource is remote,
    e.g. the centralized scheduler's site).  [first] is the simulated
    time of the first try of this attempt; on admission the elapsed
    wait lands in the [flow_admission_latency] histogram.  [Busy]
    emits a [Shed] trace record and schedules nothing — the caller
    owns the retry timer. *)

(** {2 Arrival processes} *)

type arrival = Poisson | Burst

val arrival_of_string : string -> arrival option
val arrival_to_string : arrival -> string

val arrival_delay :
  arrival -> rng:Wf_sim.Rng.t -> now:float -> mean:float -> float
(** Delay until the next arrival for an open-loop source of mean rate
    [1/mean]: [Poisson] draws an exponential inter-arrival; [Burst]
    quantizes to the next multiple of [4 * mean], so all sources fire
    in synchronized batches of the same average rate. *)
