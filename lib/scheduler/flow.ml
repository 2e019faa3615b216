open Wf_obs

type config = {
  mailbox_cap : int;
  credit_window : int;
  credit_batch : int;
  shed_watermark : int;
  retry_base : float;
  retry_backoff : float;
  retry_max : float;
  probe_every : int;
  service_time : float;
  stall_timeout : float;
}

let default_config =
  {
    mailbox_cap = 64;
    credit_window = 16;
    credit_batch = 0;
    shed_watermark = 48;
    retry_base = 1.0;
    retry_backoff = 2.0;
    retry_max = 30.0;
    probe_every = 8;
    service_time = 0.05;
    stall_timeout = 20.0;
  }

type verdict = Admitted | Busy of { retry_after : float }

(* Per-message metrics, resolved once in [create]; each registers on
   first use, so the registry's contents match name-keyed updates. *)
type meters = {
  credits_consumed : Metrics.counter;
  sends_blocked : Metrics.counter;
  credit_overrides : Metrics.counter;
  mailbox_rejects : Metrics.counter;
  mailbox_enqueued : Metrics.counter;
  credits_granted : Metrics.counter;
  admitted : Metrics.counter;
  probe_admits : Metrics.counter;
  shed : Metrics.counter;
  admission_latency : Metrics.histogram_handle;
}

(* The counters' keys, numbered once per process. *)
let k_credits_consumed = Metrics.key "flow_credits_consumed"
let k_sends_blocked = Metrics.key "flow_sends_blocked"
let k_credit_overrides = Metrics.key "flow_credit_overrides"
let k_mailbox_rejects = Metrics.key "flow_mailbox_rejects"
let k_mailbox_enqueued = Metrics.key "flow_mailbox_enqueued"
let k_credits_granted = Metrics.key "flow_credits_granted"
let k_admitted = Metrics.key "flow_admitted"
let k_probe_admits = Metrics.key "flow_probe_admits"
let k_shed = Metrics.key "flow_shed"

type t = {
  cfg : config;
  rng : Wf_sim.Rng.t;
  stats : Metrics.t;
  m : meters;
  now : unit -> float;
  tracer : unit -> Trace.sink option;
  credits : int array array;  (* sender view: credits.(src).(dst) left *)
  backlog : int array;  (* queued-not-transmitted Data per sender *)
  mailbox : int array;  (* inbound mailbox depth per receiver *)
  consumed : int array array;
      (* receiver view: consumed.(dst).(origin) since last grant *)
  shed_streak : int array;
  shed_probe : int array;
  mutable peak_backlog : int;
  mutable peak_mailbox : int;
      (* the highest values this ledger has published to the
         [flow_max_*] gauges: a gauge is written, and its name hashed,
         only when its peak rises *)
}

let batch_of cfg =
  if cfg.credit_batch > 0 then cfg.credit_batch
  else max 1 (cfg.credit_window / 2)

let create ?(config = default_config) ~num_sites ~seed ~stats ~now
    ?(tracer = fun () -> None) () =
  let n = max 1 num_sites in
  {
    cfg = config;
    rng = Wf_sim.Rng.create seed;
    stats;
    m =
      (let c = Metrics.counter stats in
       {
         credits_consumed = c k_credits_consumed;
         sends_blocked = c k_sends_blocked;
         credit_overrides = c k_credit_overrides;
         mailbox_rejects = c k_mailbox_rejects;
         mailbox_enqueued = c k_mailbox_enqueued;
         credits_granted = c k_credits_granted;
         admitted = c k_admitted;
         probe_admits = c k_probe_admits;
         shed = c k_shed;
         admission_latency = Metrics.histogram stats "flow_admission_latency";
       });
    now;
    tracer;
    credits = Array.init n (fun _ -> Array.make n config.credit_window);
    backlog = Array.make n 0;
    mailbox = Array.make n 0;
    consumed = Array.init n (fun _ -> Array.make n 0);
    shed_streak = Array.make n 0;
    shed_probe = Array.make n 0;
    peak_backlog = 0;
    peak_mailbox = 0;
  }

let config t = t.cfg

(* --- sender side --------------------------------------------------------- *)

let try_acquire t ~src ~dst =
  if t.credits.(src).(dst) > 0 then begin
    t.credits.(src).(dst) <- t.credits.(src).(dst) - 1;
    Metrics.bump t.m.credits_consumed;
    true
  end
  else false

let note_blocked t ~src =
  t.backlog.(src) <- t.backlog.(src) + 1;
  Metrics.bump t.m.sends_blocked;
  if t.backlog.(src) > t.peak_backlog then begin
    t.peak_backlog <- t.backlog.(src);
    Metrics.gauge_max t.stats "flow_max_backlog" (float_of_int t.peak_backlog)
  end

let note_unblocked t ~src = t.backlog.(src) <- max 0 (t.backlog.(src) - 1)

let on_grant t ~src ~dst ~grant ~reset =
  let w = t.cfg.credit_window in
  let next =
    if reset then min w grant else min w (t.credits.(src).(dst) + grant)
  in
  t.credits.(src).(dst) <- next

let stalled t ~src ~dst ~since =
  if t.credits.(src).(dst) = 0 && t.now () -. since >= t.cfg.stall_timeout
  then begin
    Metrics.bump t.m.credit_overrides;
    true
  end
  else false

(* --- receiver side ------------------------------------------------------- *)

let mailbox_enqueue t ~dst =
  if t.mailbox.(dst) >= t.cfg.mailbox_cap then begin
    Metrics.bump t.m.mailbox_rejects;
    false
  end
  else begin
    t.mailbox.(dst) <- t.mailbox.(dst) + 1;
    Metrics.bump t.m.mailbox_enqueued;
    if t.mailbox.(dst) > t.peak_mailbox then begin
      t.peak_mailbox <- t.mailbox.(dst);
      Metrics.gauge_max t.stats "flow_max_mailbox_depth"
        (float_of_int t.peak_mailbox)
    end;
    true
  end

let grant_ready t ~dst ~origin ~threshold =
  let pending = t.consumed.(dst).(origin) in
  if pending >= threshold && pending > 0 then begin
    t.consumed.(dst).(origin) <- 0;
    Metrics.bump_by t.m.credits_granted pending;
    pending
  end
  else 0

(* The last consumption of a burst flushes the origin's partial batch:
   its grant leaves with this consumption's ack instead of waiting for
   the next drain tick. *)
let mailbox_consumed t ~dst ~origin =
  t.mailbox.(dst) <- max 0 (t.mailbox.(dst) - 1);
  t.consumed.(dst).(origin) <- t.consumed.(dst).(origin) + 1;
  let threshold = if t.mailbox.(dst) = 0 then 1 else batch_of t.cfg in
  grant_ready t ~dst ~origin ~threshold

let flush_grant t ~dst ~origin = grant_ready t ~dst ~origin ~threshold:1

let reset_window t ~receiver ~peer =
  t.consumed.(receiver).(peer) <- 0;
  Metrics.bump_by t.m.credits_granted t.cfg.credit_window;
  t.cfg.credit_window

let on_restart t ~site =
  t.mailbox.(site) <- 0;
  Array.fill t.consumed.(site) 0 (Array.length t.consumed.(site)) 0

(* --- admission ----------------------------------------------------------- *)

let depth t ~site = t.mailbox.(site) + t.backlog.(site)

let admit t ~site ?actor ?depth:d ~first () =
  let d = match d with Some d -> d | None -> depth t ~site in
  let admitted () =
    t.shed_streak.(site) <- 0;
    Metrics.bump t.m.admitted;
    Metrics.record t.m.admission_latency (t.now () -. first);
    Admitted
  in
  if d < t.cfg.shed_watermark then admitted ()
  else begin
    t.shed_probe.(site) <- t.shed_probe.(site) + 1;
    if t.cfg.probe_every > 0 && t.shed_probe.(site) mod t.cfg.probe_every = 0
    then begin
      Metrics.bump t.m.probe_admits;
      admitted ()
    end
    else begin
      let streak = min t.shed_streak.(site) 30 in
      t.shed_streak.(site) <- t.shed_streak.(site) + 1;
      Metrics.bump t.m.shed;
      let base =
        Float.min t.cfg.retry_max
          (t.cfg.retry_base *. (t.cfg.retry_backoff ** float_of_int streak))
      in
      (* x0.5 .. x1.5 seeded jitter desynchronizes shed herds the same
         way retransmit jitter desynchronizes retry storms; [retry_max]
         caps the final value, jitter included, so an arbitrarily long
         shed streak can never park an attempt past the configured
         horizon. *)
      let retry_after =
        Float.min t.cfg.retry_max (base *. (0.5 +. Wf_sim.Rng.float t.rng 1.0))
      in
      (match t.tracer () with
      | None -> ()
      | Some sink ->
          Trace.emit sink
            (Trace.make ~time:(t.now ()) ~site ?actor
               (Trace.Shed { depth = d; retry_after })));
      Busy { retry_after }
    end
  end

(* --- arrival processes --------------------------------------------------- *)

type arrival = Poisson | Burst

let arrival_of_string = function
  | "poisson" -> Some Poisson
  | "burst" -> Some Burst
  | _ -> None

let arrival_to_string = function Poisson -> "poisson" | Burst -> "burst"

let arrival_delay a ~rng ~now ~mean =
  match a with
  | Poisson -> Wf_sim.Rng.exponential rng ~mean
  | Burst ->
      (* Same average rate, delivered as synchronized batches: every
         source fires at the next multiple of the burst period. *)
      let period = 4.0 *. Float.max mean 1e-9 in
      let next = (Float.of_int (int_of_float (now /. period)) +. 1.0) *. period in
      Float.max (next -. now) 1e-9
