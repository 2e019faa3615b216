module Metrics = Wf_obs.Metrics
module Trace = Wf_obs.Trace

type site = int

type latency = { base : float; jitter : float }

type partition = {
  cut_from : float;
  cut_until : float;
  group_a : site list;
  group_b : site list;
}

type fault_config = {
  drop_rate : float;
  duplicate_rate : float;
  reorder_rate : float;
  reorder_window : float;
  partitions : partition list;
  crash_on_deliver : float;
  crash_on_send : float;
  restart_delay : float;
  max_crashes : int;
}

let no_faults =
  {
    drop_rate = 0.0;
    duplicate_rate = 0.0;
    reorder_rate = 0.0;
    reorder_window = 0.0;
    partitions = [];
    crash_on_deliver = 0.0;
    crash_on_send = 0.0;
    restart_delay = 1.0;
    max_crashes = 10_000;
  }

type 'msg event =
  | Deliver of {
      src : site;
      dst : site;
      control : bool;
      sent : float;  (** send-time clock; latency is measured at the
                         moment the handler actually runs *)
      payload : 'msg;
    }
  | Action of (unit -> unit)

type 'msg pending = { p_src : site; p_dst : site; p_control : bool; p_payload : 'msg }

type 'msg choice =
  | Ready of { lane : int; control : bool; payload : 'msg }
  | Due of { label : int }

(* Controlled mode: one FIFO per lane, kept nonempty. *)
type 'msg lane = { key : int; msgs : 'msg pending Queue.t }

(* Per-message metrics, resolved once in [create]; each registers on
   first use, so the registry's contents match name-keyed updates. *)
type net_metrics = {
  m_sent : Metrics.counter;
  m_remote : Metrics.counter;
  m_delivered : Metrics.counter;
  m_recv : Metrics.counter array; (* site_recv_<site> *)
  m_latency : Metrics.histogram_handle;
  m_dropped : Metrics.counter;
  m_crash_drops : Metrics.counter;
  m_reordered : Metrics.counter;
  m_duplicates : Metrics.counter;
  m_link_drops : Metrics.counter; (* net_drops *)
  m_partition_drops : Metrics.counter;
  m_crashes : Metrics.counter;
  m_restarts : Metrics.counter;
}

(* The counters' keys, numbered once per process; [site_recv_<i>] is
   formatted and numbered once per site number. *)
let k_sent = Metrics.key "messages_sent"
let k_remote = Metrics.key "messages_remote"
let k_delivered = Metrics.key "messages_delivered"
let k_dropped = Metrics.key "messages_dropped"
let k_crash_drops = Metrics.key "net_crash_drops"
let k_reordered = Metrics.key "net_reordered"
let k_duplicates = Metrics.key "net_duplicates"
let k_link_drops = Metrics.key "net_drops"
let k_partition_drops = Metrics.key "net_partition_drops"
let k_crashes = Metrics.key "net_crashes"
let k_restarts = Metrics.key "net_restarts"
let recv_keys = ref [||]

let recv_key i =
  let known = Array.length !recv_keys in
  if i >= known then
    recv_keys :=
      Array.init
        (max (i + 1) (2 * known))
        (fun j ->
          if j < known then !recv_keys.(j)
          else Metrics.key (Printf.sprintf "site_recv_%d" j));
  !recv_keys.(i)

type 'msg t = {
  num_sites : int;
  latency : latency; (* of every remote link *)
  faults : fault_config;
  rng : Rng.t;
  crash_rng : Rng.t;
      (* crash draws use their own stream so enabling crash injection
         does not perturb latency/think-time draws of the main stream *)
  stats : Metrics.t;
  m : net_metrics;
  mutable tracer : Trace.sink option;
  queue : 'msg event Heap.t;
  handlers : (site -> 'msg -> unit) option array;
  last_delivery : float array;
      (* per link, [src * num_sites + dst]: the latest FIFO arrival
         time scheduled; [neg_infinity] before the first *)
  crashed : bool array;
  mutable restart_hooks : (site -> unit) list; (* registration order *)
  mutable crashes_injected : int;
  mutable clock : float;
  mutable busy : float;
      (* the clock when the last delivery, or action that did not
         declare itself idle, ran *)
  mutable busy_before : float; (* [busy] before the running action *)
  mutable seq : int;
  mutable chooser : ('msg choice list -> int) option;
      (* controlled mode: when set, sent messages skip the latency heap
         and wait in [lanes], scheduled actions wait in [due], and the
         chooser picks what the run loop does next *)
  mutable lane_of : 'msg -> int;
  mutable lanes : 'msg lane list; (* nonempty lanes, creation order *)
  mutable due : (int * (unit -> unit)) list; (* label, action; schedule order *)
}

(* A same-site message's delay, with no jitter. *)
let local_latency = 0.001

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

let create ?(seed = 42L) ?(faults = no_faults) ~num_sites ~latency () =
  let stats = Metrics.create () in
  let c = Metrics.counter stats in
  let t =
    {
      num_sites;
      latency;
      faults;
      rng = Rng.create seed;
      crash_rng = Rng.create (Int64.logxor seed 0x9E3779B97F4A7C15L);
      stats;
      m =
        {
          m_sent = c k_sent;
          m_remote = c k_remote;
          m_delivered = c k_delivered;
          m_recv = Array.init num_sites (fun i -> c (recv_key i));
          m_latency = Metrics.histogram stats "message_latency";
          m_dropped = c k_dropped;
          m_crash_drops = c k_crash_drops;
          m_reordered = c k_reordered;
          m_duplicates = c k_duplicates;
          m_link_drops = c k_link_drops;
          m_partition_drops = c k_partition_drops;
          m_crashes = c k_crashes;
          m_restarts = c k_restarts;
        };
      tracer = None;
      queue = Heap.create ();
      handlers = Array.make num_sites None;
      last_delivery = Array.make (num_sites * num_sites) neg_infinity;
      crashed = Array.make num_sites false;
      restart_hooks = [];
      crashes_injected = 0;
      clock = 0.0;
      busy = 0.0;
      busy_before = 0.0;
      seq = 0;
      chooser = None;
      lane_of = (fun _ -> 0);
      lanes = [];
      due = [];
    }
  in
  t

let now t = t.clock
let busy_until t = t.busy
let stats t = t.stats
let fault_config t = t.faults
let rng t = t.rng
let set_tracer t sink = t.tracer <- sink
let tracer t = t.tracer

let set_chooser t ~lane chooser =
  t.lane_of <- lane;
  t.chooser <- Some chooser

let pending_deliveries t =
  List.concat_map (fun l -> List.of_seq (Queue.to_seq l.msgs)) t.lanes

let choices t =
  List.fold_right
    (fun l acc ->
      let p = Queue.peek l.msgs in
      Ready { lane = l.key; control = p.p_control; payload = p.p_payload }
      :: acc)
    t.lanes
    (List.map (fun (label, _) -> Due { label }) t.due)

let on_receive t site handler =
  if site < 0 || site >= t.num_sites then
    invalid_arg "Netsim.on_receive: bad site";
  t.handlers.(site) <- Some handler

let num_sites t = t.num_sites

let on_restart t hook = t.restart_hooks <- t.restart_hooks @ [ hook ]

let can_crash fc = fc.crash_on_deliver > 0.0 || fc.crash_on_send > 0.0

(* Does the partition cut the (src, dst) link?  Both directions between
   the two groups are cut. *)
let separates { group_a; group_b; _ } src dst =
  (List.mem src group_a && List.mem dst group_b)
  || (List.mem src group_b && List.mem dst group_a)

let exactly_once fc ~src ~dst =
  (not (can_crash fc))
  && (src = dst
     || fc.drop_rate <= 0.0
        && fc.duplicate_rate <= 0.0
        && not (List.exists (fun p -> separates p src dst) fc.partitions))

let mark_crashed t site =
  if not t.crashed.(site) then begin
    t.crashed.(site) <- true;
    Metrics.bump t.m.m_crashes;
    match t.tracer with
    | None -> ()
    | Some sink ->
        Trace.emit sink (Trace.make ~time:t.clock ~site Trace.Crash)
  end

let crash_site t site =
  if site < 0 || site >= t.num_sites then invalid_arg "Netsim.crash_site";
  if not (can_crash t.faults) then
    invalid_arg "Netsim.crash_site: the fault config cannot crash a site";
  mark_crashed t site

let restart_site t site =
  if site < 0 || site >= t.num_sites then invalid_arg "Netsim.restart_site";
  if t.crashed.(site) then begin
    t.crashed.(site) <- false;
    Metrics.bump t.m.m_restarts;
    (match t.tracer with
    | None -> ()
    | Some sink ->
        Trace.emit sink (Trace.make ~time:t.clock ~site Trace.Restart));
    List.iter (fun hook -> hook site) t.restart_hooks
  end

let crash_restart t site =
  if site < 0 || site >= t.num_sites then invalid_arg "Netsim.crash_restart";
  mark_crashed t site;
  restart_site t site

let site_crashed t site = t.crashed.(site)

(* Seeded crash injection at a transition boundary of [site].  Crashes
   draw on a budget ([max_crashes]) so that even a crash-at-every-
   transition schedule terminates: recovery traffic (handshakes, revived
   retransmissions) can itself be crashed, and without a budget two
   mutually-watching recovering actors could knock each other over
   forever. *)
let maybe_crash t ~prob site =
  if
    prob > 0.0
    && (not t.crashed.(site))
    && t.crashes_injected < t.faults.max_crashes
    && Rng.float t.crash_rng 1.0 < prob
  then begin
    t.crashes_injected <- t.crashes_injected + 1;
    crash_site t site;
    let delay =
      if t.faults.restart_delay <= 0.0 then 0.0
      else Rng.exponential t.crash_rng ~mean:t.faults.restart_delay
    in
    Heap.push t.queue ~key:(t.clock +. delay) ~seq:(next_seq t)
      (Action (fun () -> restart_site t site))
  end

(* Is the (src, dst) link severed by some partition window at the
   current virtual time? *)
let partitioned t src dst =
  List.exists
    (fun p ->
      t.clock >= p.cut_from && t.clock < p.cut_until && separates p src dst)
    t.faults.partitions

(* Controlled mode: no latency model — the message is immediately
   ready, behind the older messages of its lane. *)
let enqueue_ready t ~src ~dst ~control payload =
  let p = { p_src = src; p_dst = dst; p_control = control; p_payload = payload } in
  let key = t.lane_of payload in
  match List.find_opt (fun l -> l.key = key) t.lanes with
  | Some l -> Queue.push p l.msgs
  | None ->
      let msgs = Queue.create () in
      Queue.push p msgs;
      t.lanes <- t.lanes @ [ { key; msgs } ]

let enqueue_delivery t ~src ~dst ~control payload =
  if t.chooser <> None then enqueue_ready t ~src ~dst ~control payload
  else begin
  let delay =
    if src = dst then local_latency
    else
      let { base; jitter } = t.latency in
      base +. if jitter > 0.0 then Rng.exponential t.rng ~mean:jitter else 0.0
  in
  let fc = t.faults in
  let reordered =
    src <> dst && fc.reorder_rate > 0.0 && Rng.float t.rng 1.0 < fc.reorder_rate
  in
  let delay =
    if reordered then begin
      Metrics.bump t.m.m_reordered;
      delay +. Rng.float t.rng fc.reorder_window
    end
    else delay
  in
  let arrival = t.clock +. delay in
  (* FIFO per link for normal traffic; a reordered message escapes the
     clamp (and does not tighten it for its successors), which is
     exactly the bounded out-of-order delivery being modelled. *)
  let link = (src * t.num_sites) + dst in
  let arrival =
    if reordered then arrival
    else
      let last = t.last_delivery.(link) in
      if last >= arrival then last +. 1e-9 else arrival
  in
  if not reordered then t.last_delivery.(link) <- arrival;
  (* Receive-side stats (site_recv_*, message_latency) are recorded at
     actual delivery in [run], not here: a message enqueued into a
     site's crash window is swallowed and must not count as received. *)
  Heap.push t.queue ~key:arrival ~seq:(next_seq t)
    (Deliver { src; dst; control; sent = t.clock; payload })
  end

let send ?(control = false) t ~src ~dst payload =
  Metrics.bump t.m.m_sent;
  if src <> dst then Metrics.bump t.m.m_remote;
  (match t.tracer with
  | None -> ()
  | Some sink ->
      Trace.emit sink
        (Trace.make ~time:t.clock ~site:src
           (Trace.Send { src; dst; control })));
  let fc = t.faults in
  let drop reason counter =
    Metrics.bump counter;
    match t.tracer with
    | None -> ()
    | Some sink ->
        Trace.emit sink
          (Trace.make ~time:t.clock ~site:src
             (Trace.Drop { src; dst; reason }))
  in
  if src <> dst && partitioned t src dst then
    drop Trace.Partition t.m.m_partition_drops
  else if src <> dst && fc.drop_rate > 0.0 && Rng.float t.rng 1.0 < fc.drop_rate
  then drop Trace.Link t.m.m_link_drops
  else begin
    enqueue_delivery t ~src ~dst ~control payload;
    if
      src <> dst && fc.duplicate_rate > 0.0
      && Rng.float t.rng 1.0 < fc.duplicate_rate
    then begin
      Metrics.bump t.m.m_duplicates;
      enqueue_delivery t ~src ~dst ~control payload
    end
  end;
  (* Crash-on-send point: the sending process dies right after the
     message left it.  Wire-level bookkeeping (acks, hellos) is exempt —
     it is not a guarded transition of any actor. *)
  if src <> dst && not control then maybe_crash t ~prob:fc.crash_on_send src

let schedule ?(label = -1) t ~delay action =
  match t.chooser with
  | Some _ -> t.due <- t.due @ [ (label, action) ]
  | None ->
      Heap.push t.queue ~key:(t.clock +. delay) ~seq:(next_seq t) (Action action)

let idle t = t.busy <- t.busy_before

(* Execute one delivery at the current clock: drop into a crash window,
   or run the handler — the one delivery path for both the latency heap
   and the controlled-mode ready list. *)
let execute_delivery t ~src ~dst ~control ~sent payload =
  if t.crashed.(dst) then begin
    (* A crashed process receives nothing; the channel's
       retransmission layer recovers the loss after the
       epoch handshake. *)
    Metrics.bump t.m.m_crash_drops;
    match t.tracer with
    | None -> ()
    | Some sink ->
        Trace.emit sink
          (Trace.make ~time:t.clock ~site:dst
             (Trace.Drop { src; dst; reason = Trace.Crashed }))
  end
  else begin
    Metrics.bump t.m.m_delivered;
    Metrics.bump t.m.m_recv.(dst);
    Metrics.record t.m.m_latency (t.clock -. sent);
    (match t.tracer with
    | None -> ()
    | Some sink ->
        Trace.emit sink
          (Trace.make ~time:t.clock ~site:dst (Trace.Deliver { src; dst })));
    (match t.handlers.(dst) with
    | Some h -> h src payload
    | None -> Metrics.bump t.m.m_dropped);
    (* Crash-on-deliver point: the receiving process dies
       right after the handler ran — the transition took
       effect and was journaled, but anything volatile is
       lost.  Local (same-site) and control traffic is
       exempt so recovery bookkeeping cannot crash-loop. *)
    if src <> dst && not control then
      maybe_crash t ~prob:t.faults.crash_on_deliver dst
  end

(* A lane's head, or a due action, at the clock: in controlled mode
   time does not pass, so a delivery's latency is 0. *)
let take t idx =
  let lanes = List.length t.lanes in
  if idx < 0 || idx >= lanes + List.length t.due then
    invalid_arg
      (Printf.sprintf "Netsim.take: choice %d out of range [0,%d)" idx
         (lanes + List.length t.due));
  if idx < lanes then begin
    let l = List.nth t.lanes idx in
    let p = Queue.pop l.msgs in
    if Queue.is_empty l.msgs then t.lanes <- List.filter (( != ) l) t.lanes;
    t.busy <- t.clock;
    execute_delivery t ~src:p.p_src ~dst:p.p_dst ~control:p.p_control
      ~sent:t.clock p.p_payload
  end
  else begin
    let ((_, action) as d) = List.nth t.due (idx - lanes) in
    t.due <- List.filter (( != ) d) t.due;
    t.busy_before <- t.busy;
    t.busy <- t.clock;
    action ()
  end

let run ?(max_steps = max_int) t =
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps do
    match t.chooser with
    | Some choose when t.lanes <> [] || t.due <> [] ->
        incr steps;
        take t (choose (choices t))
    | _ ->
        if Heap.is_empty t.queue then continue := false
        else begin
          let time = Heap.min_key t.queue in
          let event = Heap.take t.queue in
          incr steps;
          if time > t.clock then t.clock <- time;
          match event with
          | Action f ->
              t.busy_before <- t.busy;
              t.busy <- t.clock;
              f ()
          | Deliver { src; dst; control; sent; payload } ->
              t.busy <- t.clock;
              execute_delivery t ~src ~dst ~control ~sent payload
        end
  done

module For_testing = struct
  let crash_site = crash_site
  let restart_site = restart_site
  let quiescent t = Heap.is_empty t.queue && t.lanes = [] && t.due = []
end
