module Metrics = Wf_obs.Metrics
module Trace = Wf_obs.Trace
module Int_table = Wf_core.Int_table

type site = Wf_sim.Netsim.site

type 'a wire =
  | Data of { mid : int; epoch : int; origin : site; prio : bool; payload : 'a }
  | Acked of { ack_mid : int; ack_epoch : int; ack_grant : int; data : 'a wire }
  | Ack of { mid : int; epoch : int; grant : int }
  | Hello of { origin : site; epoch : int; window : int }
  | Credit of { grant : int; reset : bool }

type 'a pending = {
  p_src : site;
  p_dst : site;
  p_epoch : int; (* sender epoch at first send; stable across revives *)
  p_mid : int;
  p_payload : 'a;
  p_prio : bool;
  p_first_sent : float; (* also the block time of a credit-blocked send *)
  mutable p_tries : int;
  mutable p_state : state;
  mutable p_peer_epoch : int;
      (* the destination's epoch as the sender knew it when the
         transfer (re)started: a newer one at give-up means the
         destination restarted while the transfer was being retried *)
}

(* An outbox entry is [Blocked] from its send until its first
   transmission (which follows at once unless the credit window is
   empty), [Sent] while its retransmit timer runs, and [Dead] once the
   sender gave up: kept for revival on the destination's Hello, and
   settled by a late ack. *)
and state = Blocked | Sent | Dead

(* Everything the protocol keeps about the messages of one
   (origin, epoch).  A message id is unique only within it: mid
   counters are volatile and restart from 0 after a crash, so the dedup
   and ack key is the full triple, and an operation reads two arrays to
   find the stream and probes one int in it. *)
type 'a stream = {
  outbox : 'a pending Int_table.t; (* durable, at the origin *)
  mutable floor : int;
      (* Cumulative dedup watermark (-1 while no mid is covered): every
         mid at or below it has been delivered, so its [seen] entry is
         pruned.  Mids are assigned densely, so a long fault-free run
         keeps O(reorder window) entries instead of O(messages). *)
  seen : unit Int_table.t; (* delivered mids above the floor *)
  queued : unit Int_table.t; (* in a mailbox, not yet consumed *)
}

(* A message waiting in a receiver's mailbox. *)
type 'a queued = {
  q_src : site; (* the wire source *)
  q_origin : site;
  q_epoch : int;
  q_mid : int;
  q_payload : 'a;
  q_enqueued : float;
}

(* Flow control: the credit ledger beside the backlogs and mailboxes it
   bounds (their depths are the queues' lengths). *)
type 'a flow = {
  cfg : Flow.config;
  credits : int array; (* by link [src -> dst]: the sender's credits left *)
  owed : int array;
      (* by link [site -> origin]: consumptions at [site] since its
         last grant to [origin] *)
  blocked : 'a pending Queue.t array; (* by link: sends awaiting credit, FIFO *)
  stall_on : bool array; (* by link: a stall checker is scheduled *)
  mbox : 'a queued Queue.t array; (* by receiving site, the inbound mailbox *)
  draining : bool array; (* by site: a mailbox drain tick is scheduled *)
  mutable peak_backlog : int;
  mutable peak_mailbox : int;
      (* the highest values published to the [flow_max_*] gauges: a
         gauge is written, and its name hashed, only when its peak
         rises *)
  m_credits_consumed : Metrics.counter;
  m_sends_blocked : Metrics.counter;
  m_credit_overrides : Metrics.counter;
  m_mailbox_rejects : Metrics.counter;
  m_mailbox_enqueued : Metrics.counter;
  m_credits_granted : Metrics.counter; (* returned for consumptions *)
  m_window_resets : Metrics.counter; (* reset grants, one per grant *)
  m_queue_wait : Metrics.histogram_handle; (* flow_queue_wait *)
}

(* The ack of the copy a handler is consuming, held across the handler
   call so that it can ride on the handler's first transmission to the
   acked origin.  Handlers never nest (a send only enqueues on the
   network), so one slot serves the whole channel. *)
type held = {
  mutable h_on : bool;
  mutable h_site : site; (* the consuming site, which owes the ack *)
  mutable h_origin : site;
  mutable h_mid : int;
  mutable h_epoch : int;
  mutable h_grant : int; (* credits returned with the ack *)
}

type 'a t = {
  net : 'a wire Wf_sim.Netsim.t;
  rto : float;
  rng : Wf_sim.Rng.t;
      (* the channel's own stream (split off the network's at creation)
         so jitter draws do not perturb latency/fault randomness *)
  epochs : int array; (* durable: bumped on every restart *)
  mids : int array; (* volatile: reset to 0 on restart *)
  peer_epoch : int array array; (* per observer: highest epoch seen per origin *)
  direct : bool array;
      (* per link, [src * num_sites + dst]: the link delivers every
         message exactly once ({!Wf_sim.Netsim.exactly_once}) and no
         mailbox can refuse one, so its sends skip the protocol *)
  streams : 'a stream array array;
      (* by origin, then epoch; an origin's array grows with its
         epochs and a stream is made on first use *)
  admission : Flow.t option;
  flow : 'a flow option;
  handlers : (site -> 'a -> unit) option array; (* by receiving site *)
  held : held;
  (* Counters register on their first bump, so a run whose links are
     all direct reports none of the protocol's. *)
  m_acks : Metrics.counter; (* chan_acks, bumped once per delivered copy *)
  m_direct : Metrics.counter; (* chan_direct_sends *)
  m_ack_latency : Metrics.histogram_handle;
  m_retransmits : Metrics.counter;
  m_duplicates : Metrics.counter; (* chan_duplicates_suppressed *)
  m_gave_up : Metrics.counter;
  m_revived : Metrics.counter;
  m_data_frames : Metrics.counter; (* frames put on the wire, by kind *)
  m_ack_frames : Metrics.counter;
  m_credit_frames : Metrics.counter;
  m_hello_frames : Metrics.counter;
  m_piggybacked : Metrics.counter; (* chan_acks_piggybacked *)
}

(* The counters' keys, numbered once per process. *)
let k_acks = Metrics.key "chan_acks"
let k_direct = Metrics.key "chan_direct_sends"
let k_retransmits = Metrics.key "chan_retransmits"
let k_duplicates = Metrics.key "chan_duplicates_suppressed"
let k_gave_up = Metrics.key "chan_gave_up"
let k_revived = Metrics.key "chan_revived"
let k_data_frames = Metrics.key "chan_frames_data"
let k_ack_frames = Metrics.key "chan_frames_ack"
let k_credit_frames = Metrics.key "chan_frames_credit"
let k_hello_frames = Metrics.key "chan_frames_hello"
let k_piggybacked = Metrics.key "chan_acks_piggybacked"
let k_credits_consumed = Metrics.key "flow_credits_consumed"
let k_sends_blocked = Metrics.key "flow_sends_blocked"
let k_credit_overrides = Metrics.key "flow_credit_overrides"
let k_mailbox_rejects = Metrics.key "flow_mailbox_rejects"
let k_mailbox_enqueued = Metrics.key "flow_mailbox_enqueued"
let k_credits_granted = Metrics.key "flow_credits_granted"
let k_window_resets = Metrics.key "flow_window_resets"

(* Retransmission: the delay after [tries] resends is
   [rto·backoff^tries], capped at [max_rto] and jittered by
   [±retransmit_jitter]; after [max_retries] resends a message is
   parked as a dead letter. *)
let backoff = 2.0
let max_rto = 60.0
let max_retries = 30
let retransmit_jitter = 0.1

let epoch t site = t.epochs.(site)
let flow t = t.admission

let now t = Wf_sim.Netsim.now t.net

let link t ~src ~dst = (src * Wf_sim.Netsim.num_sites t.net) + dst

let new_stream () =
  {
    outbox = Int_table.create ();
    floor = -1;
    seen = Int_table.create ();
    queued = Int_table.create ();
  }

(* The stream of [(origin, epoch)], made (and the origin's array grown)
   on demand. *)
let stream t origin epoch =
  let by_epoch = t.streams.(origin) in
  let len = Array.length by_epoch in
  if epoch < len then by_epoch.(epoch)
  else begin
    let grown =
      Array.init
        (max (epoch + 1) (2 * len))
        (fun e -> if e < len then by_epoch.(e) else new_stream ())
    in
    t.streams.(origin) <- grown;
    grown.(epoch)
  end

(* Put a protocol frame on the wire, counted by kind.  Data (with or
   without an ack riding on it) is a transition of the sending actor;
   the rest is wire bookkeeping, exempt from crash injection. *)
let put t ~src ~dst frame =
  let control =
    match frame with
    | Data _ | Acked _ ->
        Metrics.bump t.m_data_frames;
        false
    | Ack _ ->
        Metrics.bump t.m_ack_frames;
        true
    | Credit _ ->
        Metrics.bump t.m_credit_frames;
        true
    | Hello _ ->
        Metrics.bump t.m_hello_frames;
        true
  in
  Wf_sim.Netsim.send ~control t.net ~src ~dst frame

(* --- receiver dedup with cumulative watermark ---------------------------- *)

let is_seen s mid = mid <= s.floor || Int_table.mem s.seen mid

(* Mark delivered and advance the watermark over any now-contiguous
   prefix, pruning the entries it covers.  A stream is shared by every
   site of the simulation and each delivery lands here, so the mid
   sequence observed across all receivers is dense and the floor keeps
   up with the send counter. *)
let mark_seen s mid =
  if mid > s.floor then begin
    Int_table.replace s.seen mid ();
    while Int_table.mem s.seen (s.floor + 1) do
      Int_table.remove s.seen (s.floor + 1);
      s.floor <- s.floor + 1
    done
  end

(* Exponential backoff with deterministic jitter: the base delay is
   scaled by a factor uniform in [1-j, 1+j] drawn from the channel's
   own stream.  Without it, every sender that lost traffic to the same
   partition retransmits on the same schedule forever — a synchronized
   retransmit storm each time the partition heals. *)
let rto_after t tries =
  let base = Float.min max_rto (t.rto *. (backoff ** float_of_int tries)) in
  let u = Wf_sim.Rng.float t.rng 1.0 in
  base *. (1.0 +. (retransmit_jitter *. ((2.0 *. u) -. 1.0)))

let wire_of p =
  Data
    {
      mid = p.p_mid;
      epoch = p.p_epoch;
      origin = p.p_src;
      prio = p.p_prio;
      payload = p.p_payload;
    }

(* (Re)start a transfer's retransmission cycle: tries from 0 against the
   destination's epoch as known now. *)
let rec restart t p =
  p.p_state <- Sent;
  p.p_tries <- 0;
  p.p_peer_epoch <- t.peer_epoch.(p.p_src).(p.p_dst);
  Metrics.bump t.m_revived;
  put t ~src:p.p_src ~dst:p.p_dst (wire_of p);
  Wf_sim.Netsim.schedule t.net ~delay:(rto_after t 0) (retransmit t p)

and retransmit t p () =
  if not (Int_table.mem (stream t p.p_src p.p_epoch).outbox p.p_mid) then
    Wf_sim.Netsim.idle t.net (* acked meanwhile *)
  else if
    p.p_tries >= max_retries
    && p.p_peer_epoch < t.peer_epoch.(p.p_src).(p.p_dst)
  then
    (* The destination's restart Hello arrived while this transfer was
       still retrying, so it found no dead letter to revive: revive the
       transfer now instead of giving up. *)
    restart t p
  else if p.p_tries >= max_retries then begin
    (* Keep the message: if the silent destination turns out to have
       crashed, its restart Hello revives the transfer. *)
    p.p_state <- Dead;
    Metrics.bump t.m_gave_up;
    match Wf_sim.Netsim.tracer t.net with
    | None -> ()
    | Some sink ->
        let record kind =
          Trace.make ~time:(now t) ~site:p.p_src ~epoch:p.p_epoch ~mid:p.p_mid
            kind
        in
        Trace.emit sink (record (Trace.Give_up { dst = p.p_dst }));
        Trace.emit sink
          (record (Trace.Dead_letter { dst = p.p_dst; tries = p.p_tries }))
  end
  else begin
    p.p_tries <- p.p_tries + 1;
    Metrics.bump t.m_retransmits;
    (match Wf_sim.Netsim.tracer t.net with
    | None -> ()
    | Some sink ->
        Trace.emit sink
          (Trace.make ~time:(now t) ~site:p.p_src ~epoch:p.p_epoch ~mid:p.p_mid
             (Trace.Retransmit { dst = p.p_dst; tries = p.p_tries })));
    put t ~src:p.p_src ~dst:p.p_dst (wire_of p);
    Wf_sim.Netsim.schedule t.net ~delay:(rto_after t p.p_tries) (retransmit t p)
  end

(* First transmission of an outbox entry (possibly after waiting in the
   credit backlog): put [frame] (the entry's Data, perhaps carrying an
   ack) on the wire and start the retransmit timer. *)
let transmit t p frame =
  p.p_state <- Sent;
  p.p_peer_epoch <- t.peer_epoch.(p.p_src).(p.p_dst);
  put t ~src:p.p_src ~dst:p.p_dst frame;
  Wf_sim.Netsim.schedule t.net ~delay:(rto_after t 0) (retransmit t p)

(* The frame of a send made and transmitted at once: the held ack rides
   on it when it goes to the acked origin. *)
let fresh_frame t p =
  let h = t.held in
  if h.h_on && h.h_site = p.p_src && h.h_origin = p.p_dst then begin
    h.h_on <- false;
    Metrics.bump t.m_piggybacked;
    Acked
      {
        ack_mid = h.h_mid;
        ack_epoch = h.h_epoch;
        ack_grant = h.h_grant;
        data = wire_of p;
      }
  end
  else wire_of p

(* --- credit windows, sender side ----------------------------------------- *)

(* Consume one credit of the window [src -> dst] for a first
   transmission; false when the window is empty. *)
let try_acquire t fl ~src ~dst =
  let l = link t ~src ~dst in
  if fl.credits.(l) > 0 then begin
    fl.credits.(l) <- fl.credits.(l) - 1;
    Metrics.bump fl.m_credits_consumed;
    true
  end
  else false

(* Credit-blocked sends queued at [src], over all its links. *)
let backlog t fl ~src =
  let n = Wf_sim.Netsim.num_sites t.net in
  let depth = ref 0 in
  for dst = 0 to n - 1 do
    depth := !depth + Queue.length fl.blocked.((src * n) + dst)
  done;
  !depth

(* Transmit as many credit-blocked sends src -> dst as the window now
   allows, oldest first.  Only this function and [stall_check] take an
   entry out of a backlog, and both transmit it. *)
let drain_blocked t fl ~src ~dst =
  let q = fl.blocked.(link t ~src ~dst) in
  while (not (Queue.is_empty q)) && try_acquire t fl ~src ~dst do
    let p = Queue.pop q in
    transmit t p (wire_of p)
  done

(* A credit grant from the receiver [src] reached the sender [site]:
   a [reset] grant overwrites the window, any other tops it up, never
   past [credit_window]; then transmit what the window now allows. *)
let on_grant t fl ~site ~src ~grant ~reset =
  let l = link t ~src:site ~dst:src and w = fl.cfg.credit_window in
  fl.credits.(l) <- min w (if reset then grant else fl.credits.(l) + grant);
  drain_blocked t fl ~src:site ~dst:src

(* Blocked-sender override: lost credit grants must not deadlock the
   link, so a sender stalled with an empty window for [stall_timeout]
   forcibly transmits one message, which restarts the consume/grant
   cycle.  A send blocks when it is made, so its block time is
   [p_first_sent]. *)
let rec stall_check t fl ~src ~dst () =
  let l = link t ~src ~dst in
  let q = fl.blocked.(l) in
  if Queue.is_empty q then begin
    fl.stall_on.(l) <- false;
    Wf_sim.Netsim.idle t.net (* the backlog drained meanwhile *)
  end
  else begin
    let p = Queue.peek q in
    if fl.credits.(l) = 0 && now t -. p.p_first_sent >= fl.cfg.stall_timeout
    then begin
      Metrics.bump fl.m_credit_overrides;
      ignore (Queue.pop q);
      transmit t p (wire_of p)
    end;
    if Queue.is_empty q then fl.stall_on.(l) <- false
    else
      Wf_sim.Netsim.schedule t.net ~delay:fl.cfg.stall_timeout
        (stall_check t fl ~src ~dst)
  end

(* Queue a send behind the credit window [src -> dst]. *)
let block t fl p ~src ~dst =
  let l = link t ~src ~dst in
  Queue.push p fl.blocked.(l);
  Metrics.bump fl.m_sends_blocked;
  let depth = backlog t fl ~src in
  if depth > fl.peak_backlog then begin
    fl.peak_backlog <- depth;
    Metrics.gauge_max (Wf_sim.Netsim.stats t.net) "flow_max_backlog"
      (float_of_int depth)
  end;
  if not fl.stall_on.(l) then begin
    fl.stall_on.(l) <- true;
    Wf_sim.Netsim.schedule t.net ~delay:fl.cfg.stall_timeout
      (stall_check t fl ~src ~dst)
  end

let is_direct t ~src ~dst = t.direct.(link t ~src ~dst)

let send ?(priority = false) t ~src ~dst payload =
  if is_direct t ~src ~dst then begin
    (* Nothing to recover from: no id, outbox entry, timer or ack. *)
    Metrics.bump t.m_direct;
    let epoch = t.epochs.(src) in
    Wf_sim.Netsim.send t.net ~src ~dst
      (Data { mid = -1; epoch; origin = src; prio = priority; payload })
  end
  else begin
    let mid = t.mids.(src) in
    t.mids.(src) <- mid + 1;
    let epoch = t.epochs.(src) in
    let p =
      {
        p_src = src;
        p_dst = dst;
        p_epoch = epoch;
        p_mid = mid;
        p_payload = payload;
        p_prio = priority;
        p_first_sent = now t;
        p_tries = 0;
        p_state = Blocked;
        p_peer_epoch = 0; (* set at first transmission *)
      }
    in
    Int_table.replace (stream t src epoch).outbox mid p;
    match t.flow with
    | Some fl when (not priority) && src <> dst ->
        (* Credit gate: transmit only inside the receiver's window;
           otherwise park in the backlog until a grant arrives.  The
           FIFO keeps queued sends ordered, so a send finding peers
           already blocked queues behind them. *)
        if
          Queue.is_empty fl.blocked.(link t ~src ~dst)
          && try_acquire t fl ~src ~dst
        then transmit t p (fresh_frame t p)
        else block t fl p ~src ~dst
    | _ -> transmit t p (fresh_frame t p)
  end

(* [observer] just learned (via Hello, or a Data stamped with a newer
   epoch) that [origin] restarted: resurrect the observer's dead letters
   to [origin] with their original keys, so receiver dedup still
   suppresses the ones that did arrive before the silence.  They go out
   in send order — ascending (epoch, mid) — never in the outboxes' hash
   order. *)
let revive_dead_to t ~observer ~origin =
  let mine =
    Array.fold_left
      (fun acc s ->
        Int_table.fold
          (fun _ p acc ->
            if p.p_state = Dead && p.p_dst = origin then p :: acc else acc)
          s.outbox acc)
      [] t.streams.(observer)
  in
  let send_order a b =
    match Int.compare a.p_epoch b.p_epoch with
    | 0 -> Int.compare a.p_mid b.p_mid
    | c -> c
  in
  List.iter (restart t) (List.sort send_order mine)

(* Trace one credit grant from [site] to [peer], whichever frame
   carries it. *)
let trace_grant t ~site ~peer ~grant ~reset =
  match Wf_sim.Netsim.tracer t.net with
  | None -> ()
  | Some sink ->
      Trace.emit sink
        (Trace.make ~time:(now t) ~site (Trace.Credit { peer; grant; reset }))

(* A full credit window from [receiver] to [peer] after an epoch bump
   on either side: both ledgers are volatile, so the recovery handshake
   only converges if the window is restated.  Reset grants overwrite
   instead of topping up, so duplicates are safe. *)
let reset_grant t fl ~receiver ~peer =
  let grant = fl.cfg.credit_window in
  fl.owed.(link t ~src:receiver ~dst:peer) <- 0;
  Metrics.bump fl.m_window_resets;
  trace_grant t ~site:receiver ~peer ~grant ~reset:true;
  grant

let reannounce_window t ~receiver ~peer =
  match t.flow with
  | None -> ()
  | Some fl ->
      let grant = reset_grant t fl ~receiver ~peer in
      put t ~src:receiver ~dst:peer (Credit { grant; reset = true })

let note_peer_epoch t ~observer ~origin epoch =
  if epoch > t.peer_epoch.(observer).(origin) then begin
    t.peer_epoch.(observer).(origin) <- epoch;
    revive_dead_to t ~observer ~origin;
    reannounce_window t ~receiver:observer ~peer:origin
  end

let create ~rto ?flow net =
  let n = Wf_sim.Netsim.num_sites net in
  (* A full mailbox refuses messages, so under flow control every
     cross-site link is lossy whatever the network does.  Without a
     partition the predicate reads only whether the link is local, so
     it is evaluated once per kind of link. *)
  let direct =
    let fc = Wf_sim.Netsim.fault_config net in
    let direct ~src ~dst =
      Wf_sim.Netsim.exactly_once fc ~src ~dst && (flow = None || src = dst)
    in
    if fc.Wf_sim.Netsim.partitions = [] && n > 1 then begin
      let local = direct ~src:0 ~dst:0 and remote = direct ~src:0 ~dst:1 in
      let links = Array.make (n * n) remote in
      if local <> remote then
        for site = 0 to n - 1 do
          links.((site * n) + site) <- local
        done;
      links
    end
    else
      Array.init (n * n) (fun link -> direct ~src:(link / n) ~dst:(link mod n))
  in
  let stats = Wf_sim.Netsim.stats net in
  let c = Metrics.counter stats in
  (* The admission seed is drawn before the channel splits its own
     stream off the network's. *)
  let admission =
    Option.map
      (fun config ->
        Flow.create ~config ~num_sites:n
          ~seed:(Wf_sim.Rng.next_int64 (Wf_sim.Netsim.rng net))
          ~stats
          ~now:(fun () -> Wf_sim.Netsim.now net)
          ~tracer:(fun () -> Wf_sim.Netsim.tracer net)
          ())
      flow
  in
  let flow =
    Option.map
      (fun (cfg : Flow.config) ->
        {
          cfg;
          credits = Array.make (n * n) cfg.credit_window;
          owed = Array.make (n * n) 0;
          blocked = Array.init (n * n) (fun _ -> Queue.create ());
          stall_on = Array.make (n * n) false;
          mbox = Array.init n (fun _ -> Queue.create ());
          draining = Array.make n false;
          peak_backlog = 0;
          peak_mailbox = 0;
          m_credits_consumed = c k_credits_consumed;
          m_sends_blocked = c k_sends_blocked;
          m_credit_overrides = c k_credit_overrides;
          m_mailbox_rejects = c k_mailbox_rejects;
          m_mailbox_enqueued = c k_mailbox_enqueued;
          m_credits_granted = c k_credits_granted;
          m_window_resets = c k_window_resets;
          m_queue_wait = Metrics.histogram stats "flow_queue_wait";
        })
      flow
  in
  let t =
    {
      net;
      rto;
      rng = Wf_sim.Rng.split (Wf_sim.Netsim.rng net);
      epochs = Array.make n 0;
      mids = Array.make n 0;
      peer_epoch = Array.init n (fun _ -> Array.make n 0);
      direct;
      streams = Array.make n [||];
      admission;
      flow;
      handlers = Array.make n None;
      held =
        {
          h_on = false;
          h_site = 0;
          h_origin = 0;
          h_mid = 0;
          h_epoch = 0;
          h_grant = 0;
        };
      m_acks = c k_acks;
      m_direct = c k_direct;
      m_ack_latency = Metrics.histogram stats "ack_latency";
      m_retransmits = c k_retransmits;
      m_duplicates = c k_duplicates;
      m_gave_up = c k_gave_up;
      m_revived = c k_revived;
      m_data_frames = c k_data_frames;
      m_ack_frames = c k_ack_frames;
      m_credit_frames = c k_credit_frames;
      m_hello_frames = c k_hello_frames;
      m_piggybacked = c k_piggybacked;
    }
  in
  (* Epoch handshake, sender side: a restarted site loses its volatile
     mid counter but keeps its durable epoch, which it bumps and
     announces.  Peers react by reviving any transfer they had given up
     on while the site was down.  Under flow control the Hello also
     carries the restarted receiver's full window to each peer. *)
  Wf_sim.Netsim.on_restart net (fun site ->
      t.epochs.(site) <- t.epochs.(site) + 1;
      t.mids.(site) <- 0;
      (match Wf_sim.Netsim.tracer net with
      | None -> ()
      | Some sink ->
          Trace.emit sink
            (Trace.make
               ~time:(Wf_sim.Netsim.now net)
               ~site ~epoch:t.epochs.(site) Trace.Epoch_bump));
      (* The inbound mailbox is volatile: queued messages were never
         acked, so the senders' retransmissions redeliver them. *)
      (match t.flow with
      | None -> ()
      | Some fl ->
          let q = fl.mbox.(site) in
          Queue.iter
            (fun m ->
              Int_table.remove (stream t m.q_origin m.q_epoch).queued m.q_mid)
            q;
          Queue.clear q;
          fl.draining.(site) <- false;
          Array.fill fl.owed (site * n) n 0);
      for dst = 0 to n - 1 do
        if dst <> site then
          let window =
            match t.flow with
            | None -> 0
            | Some fl -> reset_grant t fl ~receiver:site ~peer:dst
          in
          put t ~src:site ~dst
            (Hello { origin = site; epoch = t.epochs.(site); window })
      done);
  t

let depth t ~site =
  match t.flow with
  | None -> 0
  | Some fl -> Queue.length fl.mbox.(site) + backlog t fl ~src:site

(* Acknowledge a duplicate copy of a consumed message, whose ack may
   have been lost.  It returns no credits: the consumption's ack
   carried them, and a lost grant is the stall override's to heal. *)
let reack t ~site ~origin ~epoch mid =
  Metrics.bump t.m_acks;
  put t ~src:site ~dst:origin (Ack { mid; epoch; grant = 0 })

(* The held ack, if the handler's sends did not carry it, leaves on its
   own as soon as the handler returns. *)
let release_ack t =
  let h = t.held in
  if h.h_on then begin
    h.h_on <- false;
    put t ~src:h.h_site ~dst:h.h_origin
      (Ack { mid = h.h_mid; epoch = h.h_epoch; grant = h.h_grant })
  end

(* Hand one message of stream [s] to the application: this — not wire
   arrival — is the consumption point under flow control, so the ack
   and the dedup mark happen here and a crash wipes only unacked
   mailbox entries.  The ack, with [grant] credits, is held across the
   handler call (see [fresh_frame]). *)
let consume t site src s ~origin ~epoch mid ~grant payload =
  mark_seen s mid;
  Metrics.bump t.m_acks;
  let h = t.held in
  h.h_on <- true;
  h.h_site <- site;
  h.h_origin <- origin;
  h.h_mid <- mid;
  h.h_epoch <- epoch;
  h.h_grant <- grant;
  (match t.handlers.(site) with
  | None -> ()
  | Some handler -> handler src payload);
  release_ack t

(* --- credit windows, receiver side --------------------------------------- *)

(* Room in [site]'s mailbox for one more message?  A full mailbox
   refuses it unacknowledged, and the sender's retransmission
   redelivers it later. *)
let mailbox_admits t fl site =
  let depth = Queue.length fl.mbox.(site) in
  if depth >= fl.cfg.mailbox_cap then begin
    Metrics.bump fl.m_mailbox_rejects;
    false
  end
  else begin
    Metrics.bump fl.m_mailbox_enqueued;
    if depth + 1 > fl.peak_mailbox then begin
      fl.peak_mailbox <- depth + 1;
      Metrics.gauge_max (Wf_sim.Netsim.stats t.net) "flow_max_mailbox_depth"
        (float_of_int fl.peak_mailbox)
    end;
    true
  end

(* The credits [site] owes [origin], once at least [threshold] (and at
   least one) are owed. *)
let grant_ready t fl ~site ~origin ~threshold =
  let l = link t ~src:site ~dst:origin in
  let owed = fl.owed.(l) in
  if owed >= threshold && owed > 0 then begin
    fl.owed.(l) <- 0;
    Metrics.bump_by fl.m_credits_granted owed;
    owed
  end
  else 0

(* A message from [origin] left [site]'s mailbox: the grant to return
   with its ack, batched by [credit_batch]; the last consumption of a
   burst flushes the origin's partial batch, so its grant leaves with
   this ack instead of waiting for the next drain tick. *)
let consumption_grant t fl ~site ~origin =
  let l = link t ~src:site ~dst:origin in
  fl.owed.(l) <- fl.owed.(l) + 1;
  let threshold =
    if Queue.is_empty fl.mbox.(site) then 1
    else if fl.cfg.credit_batch > 0 then fl.cfg.credit_batch
    else max 1 (fl.cfg.credit_window / 2)
  in
  grant_ready t fl ~site ~origin ~threshold

(* Return [grant] consumed credits from [site] to the sender [origin]. *)
let grant_credit t ~site ~origin grant =
  trace_grant t ~site ~peer:origin ~grant ~reset:false;
  put t ~src:site ~dst:origin (Credit { grant; reset = false })

let rec drain_mailbox t fl site () =
  if Wf_sim.Netsim.site_crashed t.net site then
    (* The crash wipes the mailbox; the restart hook resets the flag
       and fresh arrivals restart the drain. *)
    fl.draining.(site) <- false
  else
    match Queue.take_opt fl.mbox.(site) with
    | None ->
        fl.draining.(site) <- false;
        (* The mailbox ran dry: flush partial grant batches so the tail
           of a burst is never stranded waiting for a full batch. *)
        for origin = 0 to Wf_sim.Netsim.num_sites t.net - 1 do
          if origin <> site then begin
            let grant = grant_ready t fl ~site ~origin ~threshold:1 in
            if grant > 0 then grant_credit t ~site ~origin grant
          end
        done
    | Some m ->
        let origin = m.q_origin in
        let s = stream t origin m.q_epoch in
        Int_table.remove s.queued m.q_mid;
        Metrics.record fl.m_queue_wait (now t -. m.q_enqueued);
        (* Batch credit grants on consumption; the grant rides on the
           consumption's ack. *)
        let grant = consumption_grant t fl ~site ~origin in
        if grant > 0 then trace_grant t ~site ~peer:origin ~grant ~reset:false;
        consume t site m.q_src s ~origin ~epoch:m.q_epoch m.q_mid ~grant
          m.q_payload;
        Wf_sim.Netsim.schedule t.net ~delay:fl.cfg.service_time
          (drain_mailbox t fl site)

(* An ack from [src] reached the sender [site], perhaps returning
   credits. *)
let on_ack t site ~src ~mid ~epoch ~grant =
  let outbox = (stream t site epoch).outbox in
  (match Int_table.find outbox mid with
  | exception Not_found -> () (* duplicate ack *)
  | { p_state = Dead; _ } ->
      (* A message that gave up and was then consumed after all (slow
         mailbox): settle it. *)
      Int_table.remove outbox mid
  | p -> (
      Int_table.remove outbox mid;
      Metrics.record t.m_ack_latency (now t -. p.p_first_sent);
      match Wf_sim.Netsim.tracer t.net with
      | None -> ()
      | Some sink ->
          Trace.emit sink
            (Trace.make ~time:(now t) ~site ~epoch ~mid
               (Trace.Ack { dst = p.p_dst }))));
  (* The ack itself frees no window slot; only its grant does. *)
  match t.flow with
  | Some fl when grant > 0 -> on_grant t fl ~site ~src ~grant ~reset:false
  | _ -> ()

(* A protocol frame from [src] reached [site]. *)
let rec on_wire t site src = function
  | Data { mid; epoch; origin; prio; payload } -> (
      if origin <> site then note_peer_epoch t ~observer:site ~origin epoch;
      let s = stream t origin epoch in
      match t.flow with
      | Some fl when (not prio) && not (src = site && origin = site) ->
          (* Flow-controlled path: ack at consumption, not arrival, so a
             crash cannot lose acked-but-unprocessed messages.  A full
             mailbox refuses the message unacknowledged and the sender's
             retransmission redelivers it later. *)
          if is_seen s mid then begin
            Metrics.bump t.m_duplicates;
            (* Consumed earlier; the ack must have been lost. *)
            reack t ~site ~origin ~epoch mid
          end
          else if Int_table.mem s.queued mid then
            (* Queued but not yet consumed: suppress the duplicate
               without acking — the consumption ack settles it. *)
            Metrics.bump t.m_duplicates
          else if mailbox_admits t fl site then begin
            Int_table.replace s.queued mid ();
            Queue.push
              {
                q_src = src;
                q_origin = origin;
                q_epoch = epoch;
                q_mid = mid;
                q_payload = payload;
                q_enqueued = now t;
              }
              fl.mbox.(site);
            if not fl.draining.(site) then begin
              fl.draining.(site) <- true;
              Wf_sim.Netsim.schedule t.net ~delay:fl.cfg.service_time
                (drain_mailbox t fl site)
            end
          end
      | _ ->
          (* Unqueued path (no flow control, or priority lane): ack every
             copy — the previous ack may itself have been lost.  Deliver
             to the handler at most once per key — a fresh epoch makes an
             old mid a distinct message, so a post-restart (mid 0, epoch
             n+1) is never suppressed by a pre-crash (mid 0, epoch n). *)
          if is_seen s mid then begin
            reack t ~site ~origin ~epoch mid;
            Metrics.bump t.m_duplicates
          end
          else consume t site src s ~origin ~epoch mid ~grant:0 payload)
  | Acked { ack_mid; ack_epoch; ack_grant; data } ->
      (* The ack was sent first: settle it before the data it rode on. *)
      on_ack t site ~src ~mid:ack_mid ~epoch:ack_epoch ~grant:ack_grant;
      on_wire t site src data
  | Ack { mid; epoch; grant } -> on_ack t site ~src ~mid ~epoch ~grant
  | Hello { origin; epoch; window } ->
      if origin <> site then begin
        (* The restarted receiver's window, then the epoch it opens. *)
        (match t.flow with
        | None -> ()
        | Some fl -> on_grant t fl ~site ~src:origin ~grant:window ~reset:true);
        note_peer_epoch t ~observer:site ~origin epoch
      end
  | Credit { grant; reset } -> (
      match t.flow with
      | None -> ()
      | Some fl -> on_grant t fl ~site ~src ~grant ~reset)

let on_receive t site handler =
  t.handlers.(site) <- Some handler;
  Wf_sim.Netsim.on_receive t.net site (fun src frame ->
      match frame with
      | Data { payload; origin; _ } when is_direct t ~src:origin ~dst:site ->
          handler src payload
      | _ -> on_wire t site src frame)

module For_testing = struct
  let fold_streams f t acc =
    Array.fold_left (Array.fold_left (fun acc s -> f s acc)) acc t.streams

  let count_entries t keep =
    fold_streams
      (fun s n ->
        Int_table.fold
          (fun _ p n -> if keep p.p_state then n + 1 else n)
          s.outbox n)
      t 0

  let unacked t = count_entries t (fun st -> st <> Dead)
  let dead_letters t = count_entries t (fun st -> st = Dead)
  let dedup_size t = fold_streams (fun s n -> n + Int_table.length s.seen) t 0

  let mailbox_depth t site =
    match t.flow with None -> 0 | Some fl -> Queue.length fl.mbox.(site)

  let queued_keys t =
    fold_streams (fun s n -> n + Int_table.length s.queued) t 0

  let holds ok invariant =
    if not ok then failwith ("Channel invariant: " ^ invariant)

  let check t =
    Array.iteri
      (fun origin by_epoch ->
        Array.iteri
          (fun epoch s ->
            Int_table.fold
              (fun mid () () ->
                holds (mid > s.floor) "seen mids lie above the floor")
              s.seen ();
            Int_table.fold
              (fun mid () () ->
                holds (not (is_seen s mid))
                  "queued mids are above the floor, not seen")
              s.queued ();
            holds
              (epoch <> t.epochs.(origin) || s.floor < t.mids.(origin))
              "the current epoch's floor is below the mid counter";
            Int_table.fold
              (fun mid p () ->
                holds
                  (p.p_src = origin && p.p_epoch = epoch && p.p_mid = mid)
                  "each outbox entry sits under its own key";
                holds
                  (p.p_state <> Dead || p.p_tries = max_retries)
                  "a dead letter made every retry")
              s.outbox ())
          by_epoch)
      t.streams;
    let blocked = count_entries t (fun st -> st = Blocked) in
    (match t.flow with
    | None ->
        holds
          (blocked = 0 && queued_keys t = 0)
          "no backlog or mailbox without flow"
    | Some fl ->
        let keys = Hashtbl.create 16 in
        let once key =
          holds (not (Hashtbl.mem keys key)) "a queue holds each key once";
          Hashtbl.replace keys key ()
        in
        Array.iteri
          (fun l q ->
            Queue.iter
              (fun p ->
                once (p.p_src, p.p_epoch, p.p_mid);
                holds
                  (p.p_state = Blocked
                  && link t ~src:p.p_src ~dst:p.p_dst = l
                  &&
                  let outbox = (stream t p.p_src p.p_epoch).outbox in
                  Int_table.mem outbox p.p_mid
                  && Int_table.find outbox p.p_mid == p)
                  "a backlog holds its link's blocked outbox entries")
              q;
            holds
              (Queue.is_empty q || fl.stall_on.(l))
              "a non-empty backlog has its stall check scheduled";
            holds
              (fl.credits.(l) >= 0
              && fl.credits.(l) <= fl.cfg.credit_window
              && fl.owed.(l) >= 0)
              "credits lie in [0, credit_window], owed counts are not negative")
          fl.blocked;
        holds
          (Hashtbl.length keys = blocked)
          "the blocked entries are the backlogs'";
        Hashtbl.reset keys;
        Array.iteri
          (fun site q ->
            holds
              (Queue.length q <= fl.cfg.mailbox_cap)
              "mailboxes hold at most the cap";
            holds
              (Queue.is_empty q || fl.draining.(site)
              || Wf_sim.Netsim.site_crashed t.net site)
              "a non-empty mailbox at a live site is draining";
            Queue.iter
              (fun m ->
                once (m.q_origin, m.q_epoch, m.q_mid);
                holds
                  (Int_table.mem (stream t m.q_origin m.q_epoch).queued m.q_mid)
                  "each mailbox entry is a queued key")
              q)
          fl.mbox;
        holds
          (Hashtbl.length keys = queued_keys t)
          "the queued keys are the mailboxes'");
    holds (not t.held.h_on) "no ack is held between steps"
end
