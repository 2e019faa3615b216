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

(* Admission metrics, resolved once in [create]; each registers on
   first use, so the registry's contents match name-keyed updates. *)
type meters = {
  admitted : Metrics.counter;
  probe_admits : Metrics.counter;
  shed : Metrics.counter;
  admission_latency : Metrics.histogram_handle;
}

(* The counters' keys, numbered once per process. *)
let k_admitted = Metrics.key "flow_admitted"
let k_probe_admits = Metrics.key "flow_probe_admits"
let k_shed = Metrics.key "flow_shed"

type t = {
  cfg : config;
  rng : Wf_sim.Rng.t;
  m : meters;
  now : unit -> float;
  tracer : unit -> Trace.sink option;
  shed_streak : int array;
  shed_probe : int array;
}

let create ?(config = default_config) ~num_sites ~seed ~stats ~now
    ?(tracer = fun () -> None) () =
  let n = max 1 num_sites in
  {
    cfg = config;
    rng = Wf_sim.Rng.create seed;
    m =
      (let c = Metrics.counter stats in
       {
         admitted = c k_admitted;
         probe_admits = c k_probe_admits;
         shed = c k_shed;
         admission_latency = Metrics.histogram stats "flow_admission_latency";
       });
    now;
    tracer;
    shed_streak = Array.make n 0;
    shed_probe = Array.make n 0;
  }

(* --- admission ----------------------------------------------------------- *)

let admit t ~site ?actor ~depth:d ~first () =
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
            (Trace.make ~time:(t.now ()) ~site
               ?actor:(Option.map Wf_core.Symbol.name actor)
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
