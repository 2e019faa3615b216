(** Discrete-event simulator of a distributed message-passing network.

    The paper's setting is a heterogeneous distributed environment whose
    components communicate asynchronously ("these may be at remote sites
    on the network", Section 2).  We reproduce it with a virtual-time
    simulator: sites host handlers; messages between sites experience a
    base latency plus seeded exponential jitter; delivery on a link is
    FIFO.  Local work can be scheduled as timed callbacks.

    The simulator assigns every delivery a deterministic total order
    (virtual time, then sequence number), making runs reproducible.

    {2 Fault injection}

    A {!fault_config} turns the perfect network into an unreliable one:
    per-message drop and duplication on remote links, bounded reordering
    (a reordered message picks up extra delay and escapes the per-link
    FIFO clamp), link partitions over virtual-time windows (messages
    sent across a severed link are silently lost).  All fault
    randomness flows from the simulator's seeded {!Rng}, so a faulty run
    is replayable from [(seed, fault_config)] alone.  Same-site messages
    are never dropped, duplicated, or reordered.

    Fault counters land in {!stats}: ["net_drops"], ["net_duplicates"],
    ["net_reordered"], ["net_partition_drops"].

    {2 Crash/restart injection}

    Beyond link faults, sites themselves can crash and restart.  A crash
    is injected at a transition boundary — right after a non-control
    remote delivery's handler ran ({!fault_config.crash_on_deliver}) or
    right after a non-control remote send left the process
    ({!fault_config.crash_on_send}).  While a site is crashed every
    delivery to it is dropped (counter ["net_crash_drops"]); after a
    seeded exponential restart delay the site comes back and every
    registered {!on_restart} hook runs, which is where the recovery
    subsystem replays the journal and initiates the epoch handshake.

    Crash draws use a dedicated random stream derived from the seed, so
    enabling crash injection does not perturb latency or link-fault
    draws.  A global budget ({!fault_config.max_crashes}) bounds the
    total number of injected crashes so that even a crash probability of
    1.0 terminates.  Counters: ["net_crashes"], ["net_restarts"],
    ["net_crash_drops"]. *)

type site = int

type 'msg t

type latency = { base : float; jitter : float }
(** The delay of a message between two sites: [base] plus an
    exponential draw of mean [jitter] (none when [jitter] is [0.0]).  A
    message to the own site takes [0.001] and draws nothing. *)

type partition = {
  cut_from : float;  (** window start, virtual time *)
  cut_until : float;  (** window end (exclusive) *)
  group_a : site list;
  group_b : site list;  (** both directions between the groups are cut *)
}

type fault_config = {
  drop_rate : float;  (** per-message loss probability on remote links *)
  duplicate_rate : float;  (** per-message duplication probability *)
  reorder_rate : float;  (** probability a message is delayed out of order *)
  reorder_window : float;  (** max extra delay of a reordered message *)
  partitions : partition list;
  crash_on_deliver : float;
      (** probability a site crashes right after handling a non-control
          remote delivery *)
  crash_on_send : float;
      (** probability a site crashes right after a non-control remote
          send *)
  restart_delay : float;
      (** mean of the exponential restart delay; [<= 0.0] restarts the
          site at the same virtual instant (immediate restart) *)
  max_crashes : int;  (** global budget of injected crashes *)
}

val no_faults : fault_config
(** All rates zero, no partitions: the perfect network.
    A network created with [no_faults] consumes the random stream
    exactly as the pre-fault simulator did. *)

val create :
  ?seed:int64 ->
  ?faults:fault_config ->
  num_sites:int ->
  latency:latency ->
  unit ->
  'msg t
(** [latency] holds for every link between two sites.  A send reads its
    two floats: it calls no latency function and allocates no record. *)

val now : 'msg t -> float

val stats : 'msg t -> Wf_obs.Metrics.t
(** The network's metrics registry.  Counters named above land here;
    receive-side metrics (["site_recv_%d"], ["message_latency"]) are
    recorded at the moment a handler actually runs — a message
    swallowed by a crash window has not been received and only shows
    up in ["net_crash_drops"]. *)

val rng : 'msg t -> Rng.t

val set_tracer : 'msg t -> Wf_obs.Trace.sink option -> unit
(** Attach (or detach) a structured trace sink.  When a sink is set the
    simulator emits {!Wf_obs.Trace} records for send / deliver / drop
    (link, partition, crash window) / crash / restart; with [None]
    (the default) the emission points cost one branch and allocate
    nothing. *)

val tracer : 'msg t -> Wf_obs.Trace.sink option
(** The attached sink, for layers above (channel, schedulers) to share
    the network's trace stream. *)

val fault_config : 'msg t -> fault_config
(** The fault configuration the network was created with; layers above
    consult it, through {!exactly_once}, to decide how defensively to
    behave. *)

val exactly_once : fault_config -> src:site -> dst:site -> bool
(** Whether the [src -> dst] link delivers every message exactly once
    under the config.  False if the config can crash a site (a crash
    window drops every delivery, same-site ones included).  For a
    cross-site link also false if the config drops or duplicates
    messages, or has a partition window separating the two sites.
    Reordering alone keeps it true: the link may reorder, but it loses
    and repeats nothing.  The channel skips its ack protocol on exactly
    these links. *)

val on_receive : 'msg t -> site -> (site -> 'msg -> unit) -> unit
(** Install the message handler of a site; the callback receives the
    source site and the payload. *)

val send : ?control:bool -> 'msg t -> src:site -> dst:site -> 'msg -> unit
(** Enqueue a message; it is delivered after the link latency, in FIFO
    order per (src, dst) pair.  Messages to the own site are delivered
    with negligible local latency.  Under a {!fault_config} the message
    may be dropped, duplicated, or reordered; across a severed partition
    it is always lost.  [control] (default [false]) marks wire-level
    bookkeeping (acks, epoch hellos): control traffic is still subject
    to link faults but never triggers crash injection, so recovery
    cannot crash-loop. *)

val schedule : ?label:int -> 'msg t -> delay:float -> (unit -> unit) -> unit
(** Run a local action after a virtual delay.  Timed actions are not
    subject to faults (they model local computation, not messages).
    [label] (default [-1]) names the action to a chooser in controlled
    mode and is ignored otherwise. *)

val idle : 'msg t -> unit
(** Called by a running {!schedule}d action that found nothing to do
    (a retransmit timer of a message acked meanwhile, a stall check of
    a backlog drained meanwhile): the action does not count in
    {!busy_until}.  The clock moved to it like to any event, so every
    time stamped later is unchanged.  Call it only from inside an
    action. *)

val busy_until : 'msg t -> float
(** The clock when the last delivery (or drop into a crash window) or
    action that did not call {!idle} ran: the virtual time the run was
    last doing anything.  A run's makespan, which idle timers must not
    stretch. *)

val num_sites : 'msg t -> int

val crash_restart : 'msg t -> site -> unit
(** Crash the site and restart it in one step: the crash and restart
    are counted and traced and the {!on_restart} hooks run, but no
    delivery happens or is dropped in between.  Since nothing is lost,
    every fault config allows it, unlike {!For_testing.crash_site}. *)

val site_crashed : 'msg t -> site -> bool

val on_restart : 'msg t -> (site -> unit) -> unit
(** Register a hook called with the site id every time a site restarts
    after a crash.  Hooks run in registration order, so layering is
    deterministic: the channel re-announces its epoch before the
    scheduler replays actors, provided they registered in that order. *)

val run : ?max_steps:int -> 'msg t -> unit
(** Process events until the queue drains (or [max_steps] is hit). *)

(** {2 Controlled mode}

    In controlled mode the latency model is bypassed and time stands
    still: every sent message becomes {e ready} at once, every
    {!schedule}d action becomes {e due} at once, and each time {!run}
    has a ready message or a due action it asks the installed chooser
    which to perform next.  Ready messages are grouped into {e lanes} by
    a caller-given key and each lane is FIFO, so the chooser sees one
    choice per nonempty lane plus one per due action: choosing costs
    O(lanes + actions), not O(messages).  A choice is named by its lane
    key or by the label its action was scheduled with, so the same
    choice keeps its name in every replay of a run.  The model checker
    ([Wf_check.Mc]) drives a run this way, with one lane per
    (sending actor, receiving actor) pair; a test can give every message
    its own lane to deliver in any order. *)

type 'msg pending = {
  p_src : site;
  p_dst : site;
  p_control : bool;
  p_payload : 'msg;
}
(** A ready delivery. *)

type 'msg choice =
  | Ready of { lane : int; control : bool; payload : 'msg }
      (** the oldest ready message of the lane *)
  | Due of { label : int }  (** a scheduled action, by its [label] *)

val set_chooser :
  'msg t -> lane:('msg -> int) -> ('msg choice list -> int) -> unit
(** Enter controlled mode before the first send or action.  [lane]
    keys each message's lane.  The chooser receives {!choices} and
    returns the index of the one to perform; an out-of-range index
    raises [Invalid_argument]. *)

val choices : 'msg t -> 'msg choice list
(** The nonempty lanes' heads, lanes in creation order, then the due
    actions in schedule order; empty outside controlled mode. *)

val take : 'msg t -> int -> unit
(** Perform the choice of that index in {!choices}: deliver the lane's
    head (or drop it into a crash window), or run the action. *)

val pending_deliveries : 'msg t -> 'msg pending list
(** Every ready delivery, lane by lane (creation order), each lane
    oldest first; empty outside controlled mode. *)

(** {2 Test hooks} *)

module For_testing : sig
  val crash_site : 'msg t -> site -> unit
  (** Crash the site now: until {!restart_site}, every delivery to it is
      dropped (["net_crash_drops"]).  Idempotent.  Raises
      [Invalid_argument] when the fault config cannot crash a site
      ([crash_on_deliver] and [crash_on_send] both zero): layers above
      rely on {!exactly_once}, and a crash there would lose messages
      they send without acknowledgement.  A config with a crash
      probability and [max_crashes = 0] allows manual crashes without
      injecting any. *)

  val restart_site : 'msg t -> site -> unit
  (** Bring a crashed site back and run the registered {!on_restart}
      hooks (in registration order).  No-op if the site is not crashed. *)

  val quiescent : 'msg t -> bool
  (** No pending events and no ready deliveries. *)
end
