(** Admission control and arrival processes.

    {b Admission control.}  [admit] is the scheduler-boundary gate: an
    attempt arriving while the gating queue depth is at or above
    [shed_watermark] is shed with a typed [Busy {retry_after}] verdict
    and a deterministic, seeded exponential backoff.  Every
    [probe_every]-th over-watermark request is admitted anyway, so shed
    attempts are eventually admitted and saturated runs drain to
    quiescence once arrivals stop.  The caller measures the depth: the
    channel's {!Channel.depth} (mailbox plus credit-blocked sends) for
    the ground schedulers, the parked backlog for the parametrized
    engine.

    {b Arrival processes.}  The open-loop sources' inter-arrival delays.

    [config] also carries the credit-window, mailbox and stall
    parameters of the channel's flow control, which {!Channel}
    implements (see its "Flow control" section): one record configures
    both layers.

    Every verdict draws from one seeded RNG, so runs are reproducible;
    metrics land in the owner's registry under [flow_admitted],
    [flow_probe_admits], [flow_shed] and the [flow_admission_latency]
    histogram, and [Shed] records go to the trace sink. *)

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

(** {2 Admission control} *)

val admit :
  t ->
  site:int ->
  ?actor:Wf_core.Symbol.t ->
  depth:int ->
  first:float ->
  unit ->
  verdict
(** Admission verdict for an attempt at [site] against the queue depth
    [depth] of the congested resource (the local site's, or the
    centralized scheduler's site's, or a backlog).  [first] is the simulated
    time of the first try of this attempt; on admission the elapsed
    wait lands in the [flow_admission_latency] histogram.  [Busy]
    emits a [Shed] trace record, naming [actor] in it only when a tracer
    is attached, and schedules nothing — the caller owns the retry
    timer. *)

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
