(* The reliable-delivery channel: exactly-once handling over a network
   that drops, duplicates, reorders and partitions. *)

open Wf_sim
open Wf_scheduler
open Helpers

let make_net ?(num_sites = 2) ?(seed = 42L) ?(faults = Netsim.no_faults) () =
  Netsim.create ~seed ~faults ~num_sites
    ~latency:{ Netsim.base = 1.0; jitter = 0.5 }
    ()

(* Send [n] distinct messages 0..n-1 from site 0 to site 1 and return
   what site 1's handler saw, in order. *)
let collect ?(n = 100) ?(rto = 4.0) ?faults ?seed () =
  let net = make_net ?seed ?faults () in
  let chan = Channel.create ~rto net in
  let received = ref [] in
  Channel.on_receive chan 1 (fun _src i -> received := i :: !received);
  Channel.on_receive chan 0 (fun _ _ -> ());
  for i = 0 to n - 1 do
    Channel.send chan ~src:0 ~dst:1 i
  done;
  Netsim.run net;
  (net, chan, List.rev !received)

let exactly_once name received n =
  check Alcotest.int (name ^ ": count") n (List.length received);
  check
    Alcotest.(list int)
    (name ^ ": each exactly once")
    (List.init n (fun i -> i))
    (List.sort compare received)

let test_clean_network () =
  (* rto far above any plausible jittered round trip: the fast path must
     not retransmit. *)
  let net, chan, received = collect ~rto:20.0 () in
  exactly_once "clean" received 100;
  check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan);
  check Alcotest.int "no retransmits on a clean link" 0
    (Wf_obs.Metrics.count (Netsim.stats net) "chan_retransmits")

let test_lossy_network () =
  let faults = { Netsim.no_faults with drop_rate = 0.3 } in
  let net, chan, received = collect ~faults () in
  exactly_once "lossy" received 100;
  check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan);
  checkb "drops happened" (Wf_obs.Metrics.count (Netsim.stats net) "net_drops" > 0);
  checkb "retransmits happened"
    (Wf_obs.Metrics.count (Netsim.stats net) "chan_retransmits" > 0);
  checkb "nothing given up" (Wf_obs.Metrics.count (Netsim.stats net) "chan_gave_up" = 0)

let test_duplicating_network () =
  let faults = { Netsim.no_faults with duplicate_rate = 0.5 } in
  let net, _, received = collect ~faults () in
  exactly_once "duplicating" received 100;
  checkb "network duplicated"
    (Wf_obs.Metrics.count (Netsim.stats net) "net_duplicates" > 0);
  checkb "duplicates suppressed"
    (Wf_obs.Metrics.count (Netsim.stats net) "chan_duplicates_suppressed" > 0)

let test_chaotic_network () =
  (* Everything at once, still exactly-once. *)
  let faults =
    {
      Netsim.no_faults with
      drop_rate = 0.2;
      duplicate_rate = 0.2;
      reorder_rate = 0.3;
      reorder_window = 10.0;
    }
  in
  List.iter
    (fun seed ->
      let _, chan, received = collect ~faults ~seed () in
      exactly_once (Printf.sprintf "chaos seed %Ld" seed) received 100;
      check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan))
    [ 1L; 2L; 3L; 4L; 5L ]

let test_partition_window () =
  (* Messages sent during the partition are lost on the wire but arrive
     once the window closes, via retransmission. *)
  let faults =
    {
      Netsim.no_faults with
      partitions =
        [
          {
            Netsim.cut_from = 0.0;
            cut_until = 50.0;
            group_a = [ 0 ];
            group_b = [ 1 ];
          };
        ];
    }
  in
  let net, _, received = collect ~n:20 ~faults () in
  exactly_once "partition" received 20;
  checkb "partition cut traffic"
    (Wf_obs.Metrics.count (Netsim.stats net) "net_partition_drops" > 0);
  checkb "deliveries happened after the window" (Netsim.now net >= 50.0)

let test_ack_latency_observed () =
  (* A clean link delivers exactly once: nothing to acknowledge. *)
  let net, _, received = collect ~n:10 () in
  exactly_once "clean" received 10;
  let count name = Wf_obs.Metrics.count (Netsim.stats net) name in
  check Alcotest.int "no acks on a clean link" 0 (count "chan_acks");
  check Alcotest.int "every send direct" 10 (count "chan_direct_sends");
  let faults = { Netsim.no_faults with drop_rate = 0.3 } in
  let net, _, _ = collect ~n:10 ~faults () in
  let s = Wf_obs.Metrics.For_testing.summarize (Netsim.stats net) "ack_latency" in
  check Alcotest.int "one sample per message" 10 s.Wf_obs.Metrics.n;
  checkb "ack latency covers a round trip" (s.Wf_obs.Metrics.min >= 2.0)

let test_retry_cap () =
  (* A link severed forever: the sender must give up after the cap, not
     spin. *)
  let faults =
    {
      Netsim.no_faults with
      partitions =
        [
          {
            Netsim.cut_from = 0.0;
            cut_until = infinity;
            group_a = [ 0 ];
            group_b = [ 1 ];
          };
        ];
    }
  in
  let net = make_net ~faults () in
  let chan = Channel.create ~rto:1.0 net in
  Channel.on_receive chan 1 (fun _ _ -> Alcotest.fail "must never deliver");
  Channel.send chan ~src:0 ~dst:1 "doomed";
  Netsim.run net;
  check Alcotest.int "gave up once" 1
    (Wf_obs.Metrics.count (Netsim.stats net) "chan_gave_up");
  check Alcotest.int "retried exactly max_retries (30) times" 30
    (Wf_obs.Metrics.count (Netsim.stats net) "chan_retransmits");
  check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan)

(* Retransmission times of one doomed message on a network with zero
   latency jitter: all timing randomness left is the channel's own
   jitter stream. *)
let retransmit_times ~seed =
  let faults = { Netsim.no_faults with drop_rate = 1.0 } in
  let net =
    Netsim.create ~seed ~faults ~num_sites:2
      ~latency:{ Netsim.base = 1.0; jitter = 0.0 }
      ()
  in
  let sink, records = Wf_obs.Trace.collector () in
  Netsim.set_tracer net (Some sink);
  let chan = Channel.create ~rto:1.0 net in
  Channel.on_receive chan 1 (fun _ _ -> ());
  Channel.on_receive chan 0 (fun _ _ -> ());
  Channel.send chan ~src:0 ~dst:1 "doomed";
  Netsim.run net;
  List.filter_map
    (fun (r : Wf_obs.Trace.record) ->
      match r.Wf_obs.Trace.kind with
      | Wf_obs.Trace.Retransmit _ -> Some r.Wf_obs.Trace.time
      | _ -> None)
    (records ())

let test_retransmit_jitter_desync () =
  (* Two senders with adjacent seeds that queued traffic behind the same
     dead link must not retransmit in lockstep: their jitter streams
     differ, so their schedules diverge from the very first retry. *)
  let a = retransmit_times ~seed:1L in
  let b = retransmit_times ~seed:2L in
  check Alcotest.int "same retry count" (List.length a) (List.length b);
  checkb "retries happened" (List.length a = 30);
  checkb "adjacent seeds desynchronize" (a <> b);
  checkb "jitter stays within ±10% of the backoff schedule"
    (List.for_all2
       (fun ta tb -> Float.abs (ta -. tb) <= 0.2 *. Float.max ta tb)
       a b);
  (* Replays are still deterministic: same seed, same schedule. *)
  checkb "same seed replays identically" (retransmit_times ~seed:1L = a)

(* Messages given up on while their destination was down are revived
   by its restart Hello in the order they were first sent, not in the
   order the dead-letter table happens to hash them. *)
let test_revival_order () =
  let n = 8 in
  let net =
    Netsim.create ~seed:3L ~faults:manual_crashes ~num_sites:2
      ~latency:{ Netsim.base = 1.0; jitter = 0.0 }
      ()
  in
  let chan = Channel.create ~rto:1.0 net in
  let received = ref [] in
  Channel.on_receive chan 1 (fun _src i -> received := i :: !received);
  Channel.on_receive chan 0 (fun _ _ -> ());
  Netsim.For_testing.crash_site net 1;
  for i = 0 to n - 1 do
    Channel.send chan ~src:0 ~dst:1 i
  done;
  Netsim.run net;
  let count name = Wf_obs.Metrics.count (Netsim.stats net) name in
  check Alcotest.int "every message given up" n (count "chan_gave_up");
  check Alcotest.int "all dead letters" n (Channel.For_testing.dead_letters chan);
  check Alcotest.(list int) "nothing delivered to the crashed site" [] !received;
  Netsim.For_testing.restart_site net 1;
  Netsim.run net;
  check Alcotest.int "every message revived" n (count "chan_revived");
  check
    Alcotest.(list int)
    "revived in send order"
    (List.init n (fun i -> i))
    (List.rev !received);
  check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan)

(* A transfer whose destination restarts while it is still being
   retried: the restart Hello lands after the last retransmission and
   before the give-up timer, so it finds no dead letter to revive.  At
   the give-up the sender sees the newer epoch and restarts the
   transfer instead, and the message is delivered exactly once.  A dry
   run with the destination kept down times the last retransmission
   and the give-up (the channel's jitter stream is its own, so the two
   runs retry on one schedule). *)
let test_hello_before_give_up_revives () =
  let run ~restart_at =
    let net =
      Netsim.create ~seed:3L ~faults:manual_crashes ~num_sites:2
        ~latency:{ Netsim.base = 1.0; jitter = 0.0 }
        ()
    in
    let sink, records = Wf_obs.Trace.collector () in
    Netsim.set_tracer net (Some sink);
    let chan = Channel.create ~rto:1.0 net in
    let received = ref [] in
    Channel.on_receive chan 1 (fun _src m -> received := m :: !received);
    Channel.on_receive chan 0 (fun _ _ -> ());
    Netsim.For_testing.crash_site net 1;
    Channel.send chan ~src:0 ~dst:1 "late";
    Option.iter
      (fun at ->
        Netsim.schedule net ~delay:at (fun () ->
            Netsim.For_testing.restart_site net 1))
      restart_at;
    Netsim.run net;
    (net, chan, !received, records ())
  in
  let _, _, _, dry = run ~restart_at:None in
  let times f =
    List.filter_map
      (fun (r : Wf_obs.Trace.record) ->
        if f r.Wf_obs.Trace.kind then Some r.Wf_obs.Trace.time else None)
      dry
  in
  let last_retransmit =
    List.fold_left Float.max 0.0
      (times (function Wf_obs.Trace.Retransmit _ -> true | _ -> false))
  and give_up =
    List.fold_left Float.max 0.0
      (times (function Wf_obs.Trace.Give_up _ -> true | _ -> false))
  in
  (* The restart lands after the last retransmitted copy was dropped at
     the crashed site, and its Hello (one time unit later) before the
     give-up. *)
  let restart_at = last_retransmit +. 5.0 in
  checkb "the Hello lands between the last retransmission and the give-up"
    (restart_at +. 1.0 < give_up);
  let net, chan, received, _ = run ~restart_at:(Some restart_at) in
  let count name = Wf_obs.Metrics.count (Netsim.stats net) name in
  check Alcotest.(list string) "delivered exactly once" [ "late" ] received;
  check Alcotest.int "no give-up" 0 (count "chan_gave_up");
  check Alcotest.int "the transfer restarted once" 1 (count "chan_revived");
  check Alcotest.int "no dead letter" 0 (Channel.For_testing.dead_letters chan);
  check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan)

(* One origin restarts three times while its earlier batches are still
   being reordered, duplicated and retransmitted: the dedup watermark of
   each (origin, epoch) advances on its own, mids that arrive above
   their floor wait in the dedup set, and once everything lands every
   floor has caught up and the set is empty. *)
let test_watermark_across_epochs () =
  let faults =
    {
      manual_crashes with
      reorder_rate = 0.6;
      reorder_window = 8.0;
      duplicate_rate = 0.3;
    }
  in
  let net = make_net ~faults () in
  let chan = Channel.create ~rto:4.0 net in
  let received = ref [] and above_floor = ref 0 in
  Channel.on_receive chan 1 (fun _src m ->
      received := m :: !received;
      above_floor := max !above_floor (Channel.For_testing.dedup_size chan));
  Channel.on_receive chan 0 (fun _ _ -> ());
  let epochs = 4 and per_epoch = 20 in
  for e = 0 to epochs - 1 do
    Netsim.schedule net ~delay:(3.0 *. float_of_int e) (fun () ->
        if e > 0 then Netsim.crash_restart net 0;
        for i = 0 to per_epoch - 1 do
          Channel.send chan ~src:0 ~dst:1 ((100 * e) + i)
        done)
  done;
  Netsim.run net;
  check Alcotest.int "origin restarted three times" 3 (Channel.epoch chan 0);
  check
    Alcotest.(list int)
    "every message of every epoch exactly once"
    (List.concat_map
       (fun e -> List.init per_epoch (fun i -> (100 * e) + i))
       (List.init epochs Fun.id))
    (List.sort compare !received);
  checkb "some mid arrived above its floor" (!above_floor > 0);
  checkb "duplicates suppressed"
    (Wf_obs.Metrics.count (Netsim.stats net) "chan_duplicates_suppressed" > 0);
  check Alcotest.int "every floor caught up" 0 (Channel.For_testing.dedup_size chan);
  check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan)

(* Two senders blocked on a one-credit window into the same receiver:
   each link's backlog drains in its own send order, and neither link
   queues behind the other's backlog. *)
let test_blocked_links_fifo () =
  let net = make_net ~num_sites:3 () in
  let flow = { Flow.default_config with credit_window = 1 } in
  let chan = Channel.create ~rto:4.0 ~flow net in
  let received = ref [] in
  Channel.on_receive chan 2 (fun src m -> received := (src, m) :: !received);
  Channel.on_receive chan 0 (fun _ _ -> ());
  Channel.on_receive chan 1 (fun _ _ -> ());
  let k = 8 in
  (* Link 0 -> 2 builds its backlog before link 1 -> 2 sends at all. *)
  for src = 0 to 1 do
    for i = 0 to k - 1 do
      Channel.send chan ~src ~dst:2 i
    done
  done;
  Netsim.run net;
  let arrivals = List.rev !received in
  let from src =
    List.filter_map (fun (s, m) -> if s = src then Some m else None) arrivals
  in
  check Alcotest.(list int) "link 0 -> 2 in send order" (List.init k Fun.id) (from 0);
  check Alcotest.(list int) "link 1 -> 2 in send order" (List.init k Fun.id) (from 1);
  check Alcotest.int "all but each link's first send blocked" (2 * (k - 1))
    (Wf_obs.Metrics.count (Netsim.stats net) "flow_sends_blocked");
  let position src m =
    let rec go i = function
      | [] -> Alcotest.fail "missing arrival"
      | x :: rest -> if x = (src, m) then i else go (i + 1) rest
    in
    go 0 arrivals
  in
  checkb "the links interleave"
    (position 1 0 < position 0 (k - 1) && position 0 0 < position 1 (k - 1));
  check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan)

(* A restart empties the restarted site's mailbox and forgets its queued
   keys; another site's mailbox keeps its messages.  The senders'
   retransmissions then redeliver the wiped ones, exactly once. *)
let test_restart_wipes_one_mailbox () =
  let net = make_net ~num_sites:3 () in
  let flow = { Flow.default_config with service_time = 10.0 } in
  let chan = Channel.create ~rto:40.0 ~flow net in
  let received = Array.make 3 [] in
  for site = 0 to 2 do
    Channel.on_receive chan site (fun _src m ->
        received.(site) <- m :: received.(site))
  done;
  let k = 5 in
  for i = 0 to k - 1 do
    Channel.send chan ~src:0 ~dst:1 i;
    Channel.send chan ~src:0 ~dst:2 i
  done;
  let state () =
    Channel.For_testing.
      (mailbox_depth chan 1, mailbox_depth chan 2, queued_keys chan)
  in
  let before = ref (0, 0, 0) and after = ref (0, 0, 0) in
  (* Every message has arrived (latency at most 1.5) and none has been
     consumed (the first after its arrival plus the service time). *)
  Netsim.schedule net ~delay:5.0 (fun () ->
      before := state ();
      Netsim.crash_restart net 1;
      after := state ());
  Netsim.run net;
  let triple = Alcotest.(triple int int int) in
  check triple "both mailboxes full before" (k, k, 2 * k) !before;
  check triple "site 1's mailbox and keys wiped" (0, k, k) !after;
  List.iter
    (fun site ->
      check
        Alcotest.(list int)
        (Printf.sprintf "site %d got each message once" site)
        (List.init k Fun.id)
        (List.sort compare received.(site)))
    [ 1; 2 ];
  check triple "drained" (0, 0, 0) (state ());
  check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan)

(* A two-site network with no latency jitter: a message takes exactly
   one time unit, so a test can aim a partition window at one frame. *)
let steady_net ?(num_sites = 2) ?(faults = Netsim.no_faults) () =
  Netsim.create ~seed:5L ~faults ~num_sites
    ~latency:{ Netsim.base = 1.0; jitter = 0.0 }
    ()

let cut ~from ~until =
  { Netsim.cut_from = from; cut_until = until; group_a = [ 0 ]; group_b = [ 1 ] }

(* Grants ride on consumption acks, so a lost ack loses its grant.  Site
   0 sends one message at time 0: its consumption (the mailbox's last)
   returns the credit on its ack, topping the window up to full.  At
   time 10 it sends two, and a partition cuts both consumption acks, so
   both grants are lost; the retransmitted copies are re-acked without
   credit.  The window is then empty, and the message sent at time 30
   waits for the stall override, which transmits it.  Every message is
   delivered exactly once, no grant ever needs a Credit frame of its
   own, and the trace still holds a credit record for each grant. *)
let test_lost_ack_grant_healed () =
  let faults = { Netsim.no_faults with partitions = [ cut ~from:11.0 ~until:11.2 ] } in
  let net = steady_net ~faults () in
  let flow = { Flow.default_config with credit_window = 2; credit_batch = 1 } in
  let chan = Channel.create ~rto:4.0 ~flow net in
  let sink, records = Wf_obs.Trace.collector () in
  Netsim.set_tracer net (Some sink);
  let received = ref [] in
  Channel.on_receive chan 1 (fun _src m -> received := m :: !received);
  Channel.on_receive chan 0 (fun _ _ -> ());
  List.iter
    (fun (at, ms) ->
      Netsim.schedule net ~delay:at (fun () ->
          List.iter (Channel.send chan ~src:0 ~dst:1) ms))
    [ (0.0, [ 0 ]); (10.0, [ 1; 2 ]); (30.0, [ 3 ]) ];
  Netsim.run net;
  let count name = Wf_obs.Metrics.count (Netsim.stats net) name in
  check Alcotest.(list int) "each message exactly once" [ 0; 1; 2; 3 ]
    (List.sort compare !received);
  check Alcotest.int "both acks of time 10 cut" 2 (count "net_partition_drops");
  check Alcotest.int "the window was full at time 10: only the last send waited"
    1 (count "flow_sends_blocked");
  check Alcotest.int "the stall override healed the lost grants" 1
    (count "flow_credit_overrides");
  check Alcotest.int "every grant rode on an ack" 0 (count "chan_frames_credit");
  check Alcotest.int "one credit record per grant, riding or not"
    (count "flow_credits_granted")
    (List.fold_left
       (fun acc (r : Wf_obs.Trace.record) ->
         match r.Wf_obs.Trace.kind with
         | Wf_obs.Trace.Credit { grant; _ } -> acc + grant
         | _ -> acc)
       0 (records ()));
  check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan)

(* The time of each ack that reached [site], in arrival order. *)
let ack_times records site =
  List.filter_map
    (fun (r : Wf_obs.Trace.record) ->
      match r.Wf_obs.Trace.kind with
      | Wf_obs.Trace.Ack _ when r.Wf_obs.Trace.site = site -> Some r.Wf_obs.Trace.time
      | _ -> None)
    records

(* The ack of a consumption is held across the handler.  Site 1 answers
   site 0's message [m] at the instant it consumes it (time 1.05): the
   ack rides on the answer when the answer is transmitted at once, and
   otherwise leaves on its own right away, so either way it reaches site
   0 at 2.05.  The answer is credit-blocked when site 1 spent its
   one-credit window on a message of its own first ([blocked]); the ack
   then leaves alone and the answer follows, without it, when the grant
   returns.  A handler that sends only to a third site, or nothing, also
   releases the ack at once. *)
let held_ack_run ~blocked ~answer =
  let net = steady_net ~num_sites:3 () in
  let flow = { Flow.default_config with credit_window = 1 } in
  let chan = Channel.create ~rto:4.0 ~flow net in
  let sink, records = Wf_obs.Trace.collector () in
  Netsim.set_tracer net (Some sink);
  let received = Array.make 3 [] in
  for site = 0 to 2 do
    Channel.on_receive chan site (fun src m ->
        received.(site) <- m :: received.(site);
        if site = 1 && src = 0 then
          match answer with
          | `Origin -> Channel.send chan ~src:1 ~dst:0 "answer"
          | `Third -> Channel.send chan ~src:1 ~dst:2 "aside"
          | `Nothing -> ())
  done;
  if blocked then Channel.send chan ~src:1 ~dst:0 "first";
  Channel.send chan ~src:0 ~dst:1 "m";
  Netsim.run net;
  let count name = Wf_obs.Metrics.count (Netsim.stats net) name in
  check Alcotest.(list string) "m delivered once" [ "m" ] received.(1);
  check Alcotest.int "no retransmission" 0 (count "chan_retransmits");
  check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan);
  (count "chan_acks_piggybacked", ack_times (records ()) 0)

let test_held_ack () =
  let same_time = Alcotest.(list (float 1e-9)) in
  let rides, times = held_ack_run ~blocked:false ~answer:`Origin in
  check Alcotest.int "the ack rides on the answer" 1 rides;
  check same_time "and arrives with it" [ 2.05 ] times;
  let rides, times = held_ack_run ~blocked:true ~answer:`Origin in
  check Alcotest.int "never on a credit-blocked answer" 0 rides;
  check same_time "the ack of m left at once" [ 2.05 ] times;
  List.iter
    (fun (label, answer) ->
      let rides, times = held_ack_run ~blocked:false ~answer in
      check Alcotest.int (label ^ ": nothing to ride on") 0 rides;
      check same_time (label ^ ": the ack left at once") [ 2.05 ] times)
    [ ("third site", `Third); ("no answer", `Nothing) ]

(* Ping-pong over a lossy, duplicating link: site 1 answers every ping
   it consumes, site 0 answers nothing.  Each answer's first
   transmission carries its ping's ack, and nothing else does: not the
   retransmissions of answers or pings, nor the re-acks of duplicate
   copies.  One ack still goes out per delivered copy. *)
let test_acks_ride_first_answers_only () =
  let faults = { Netsim.no_faults with drop_rate = 0.3; duplicate_rate = 0.2 } in
  List.iter
    (fun seed ->
      let net = make_net ~seed ~faults () in
      let chan = Channel.create ~rto:4.0 net in
      let pongs = ref [] in
      Channel.on_receive chan 1 (fun _src i -> Channel.send chan ~src:1 ~dst:0 i);
      Channel.on_receive chan 0 (fun _src i -> pongs := i :: !pongs);
      let n = 40 in
      for i = 0 to n - 1 do
        Channel.send chan ~src:0 ~dst:1 i
      done;
      Netsim.run net;
      let count name = Wf_obs.Metrics.count (Netsim.stats net) name in
      exactly_once (Printf.sprintf "seed %Ld: pongs" seed) !pongs n;
      checkb "retransmissions happened" (count "chan_retransmits" > 0);
      check Alcotest.int "one riding ack per answer" n
        (count "chan_acks_piggybacked");
      check Alcotest.int "an ack per delivered copy, riding or not"
        (count "chan_acks")
        (count "chan_frames_ack" + count "chan_acks_piggybacked");
      check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan))
    [ 1L; 2L; 3L ]

(* A restart's window rides on its Hellos, applied as a reset: however
   many copies arrive, in whatever order, the sender's window toward
   the restarted site is [credit_window] again, never more.  Site 1
   restarts three times over a link that duplicates every frame and
   reorders most; afterwards site 0 sends six messages into a window of
   two, so four must wait for grants. *)
let test_hello_windows_overwrite () =
  let faults =
    {
      manual_crashes with
      duplicate_rate = 1.0;
      reorder_rate = 0.8;
      reorder_window = 5.0;
    }
  in
  let net = steady_net ~faults () in
  let flow = { Flow.default_config with credit_window = 2 } in
  let chan = Channel.create ~rto:4.0 ~flow net in
  let received = ref [] in
  Channel.on_receive chan 1 (fun _src m -> received := m :: !received);
  Channel.on_receive chan 0 (fun _ _ -> ());
  for _ = 1 to 3 do
    Netsim.crash_restart net 1
  done;
  Netsim.schedule net ~delay:20.0 (fun () ->
      for i = 0 to 5 do
        Channel.send chan ~src:0 ~dst:1 i
      done);
  Netsim.run net;
  let count name = Wf_obs.Metrics.count (Netsim.stats net) name in
  check Alcotest.int "three restarts, one Hello each" 3 (count "chan_frames_hello");
  checkb "Hellos duplicated" (count "net_duplicates" >= 3);
  check Alcotest.int "a window of two: four sends waited" 4
    (count "flow_sends_blocked");
  check Alcotest.(list int) "each message exactly once" (List.init 6 Fun.id)
    (List.sort compare !received);
  check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan)

(* Random fault configs over a three-site stream: every site sends to
   every site, itself included, spread over virtual time so partition
   windows and crashes meet traffic.  Whatever the config, each payload
   reaches its handler exactly once.  The channel acks nothing exactly
   when every link it used delivers exactly once (flow control makes
   the cross-site links lossy, as a full mailbox refuses messages), and
   a configured loss or duplicate source always makes the predicate
   false on the links it reaches. *)
type fault_set = {
  drop : bool;
  dup : bool;
  reorder : bool;
  partition : bool;
  crash_deliver : bool;
  crash_send : bool;
  flow : bool;
}

let gen_fault_set =
  QCheck2.Gen.(
    map2
      (fun (drop, dup, reorder, partition) (crash_deliver, crash_send, flow) ->
        { drop; dup; reorder; partition; crash_deliver; crash_send; flow })
      (quad bool bool bool bool) (triple bool bool bool))

let show_fault_set (f, seed) =
  Printf.sprintf
    "drop=%b dup=%b reorder=%b partition=%b crash_deliver=%b crash_send=%b \
     flow=%b seed=%d"
    f.drop f.dup f.reorder f.partition f.crash_deliver f.crash_send f.flow seed

let faults_of f =
  {
    Netsim.drop_rate = (if f.drop then 0.2 else 0.0);
    duplicate_rate = (if f.dup then 0.2 else 0.0);
    reorder_rate = (if f.reorder then 0.3 else 0.0);
    reorder_window = 5.0;
    partitions =
      (if f.partition then
         [
           {
             Netsim.cut_from = 2.0;
             cut_until = 20.0;
             group_a = [ 0 ];
             group_b = [ 2 ];
           };
         ]
       else []);
    crash_on_deliver = (if f.crash_deliver then 0.05 else 0.0);
    crash_on_send = (if f.crash_send then 0.05 else 0.0);
    restart_delay = 2.0;
    max_crashes = 3;
  }

let sites = 3
let rounds = 4

let prop_exactly_once_links (f, seed) =
  let fc = faults_of f in
  let net = make_net ~num_sites:sites ~seed:(Int64.of_int seed) ~faults:fc () in
  let sink, records = Wf_obs.Trace.collector () in
  Netsim.set_tracer net (Some sink);
  let flow = if f.flow then Some Flow.default_config else None in
  let chan = Channel.create ~rto:4.0 ?flow net in
  let received = ref [] and sent = ref [] in
  for site = 0 to sites - 1 do
    Channel.on_receive chan site (fun src m ->
        received := (src, site, m) :: !received)
  done;
  for round = 0 to rounds - 1 do
    Netsim.schedule net ~delay:(4.0 *. float_of_int round) (fun () ->
        for src = 0 to sites - 1 do
          if not (Netsim.site_crashed net src) then
            for dst = 0 to sites - 1 do
              let m = (round * 100) + (src * 10) + dst in
              sent := (src, dst, m) :: !sent;
              Channel.send chan ~src ~dst m
            done
        done)
  done;
  Netsim.run net;
  let count name = Wf_obs.Metrics.count (Netsim.stats net) name in
  let no_ack_records =
    List.for_all
      (fun (r : Wf_obs.Trace.record) ->
        match r.Wf_obs.Trace.kind with Wf_obs.Trace.Ack _ -> false | _ -> true)
      (records ())
  in
  let eo (src, dst) = Netsim.exactly_once fc ~src ~dst in
  let direct ((src, dst) as link) = eo link && ((not f.flow) || src = dst) in
  let used = List.map (fun (src, dst, _) -> (src, dst)) !sent in
  let links =
    List.concat_map
      (fun src -> List.init sites (fun dst -> (src, dst)))
      (List.init sites Fun.id)
  in
  let remote = List.filter (fun (src, dst) -> src <> dst) links in
  let crash = f.crash_deliver || f.crash_send in
  let all_direct = List.for_all direct used in
  List.sort compare !received = List.sort compare !sent
  && (count "chan_acks" = 0) = all_direct
  && no_ack_records = all_direct
  && count "chan_direct_sends" = List.length (List.filter direct used)
  && ((not (f.drop || f.dup)) || not (List.exists eo remote))
  && ((not crash) || not (List.exists eo links))
  && ((not f.partition) || not (eo (0, 2) || eo (2, 0)))
  && (f.drop || f.dup || crash || f.partition || List.for_all eo links)

(* The channel's invariants after every network step of scheduler runs
   under five fault and flow mixes, and each stepped run equal to one
   unstepped run of its config (test/channel_sweep.ml; @check sweeps
   seeds 1-20).  The mixes must reach the parts of the protocol the
   invariants are about; mailbox refusals are rare (the credit window
   keeps mailboxes below their cap), and seed 4 is the first with one. *)
let test_invariant_sweep () =
  let o =
    Channel_sweep.sweep ~spec_dir:Test_flow.spec_dir
      ~seeds:[ 1L; 2L; 3L; 4L; 5L ]
  in
  check Alcotest.(list string) "no invariant broken, stepped = one run" []
    o.Channel_sweep.failures;
  check Alcotest.int "runs" 250 o.Channel_sweep.runs;
  let count = Wf_obs.Metrics.count o.Channel_sweep.stats in
  List.iter
    (fun name -> checkb (name ^ " reached") (count name > 0))
    [
      "chan_retransmits";
      "chan_duplicates_suppressed";
      "chan_gave_up";
      "chan_revived";
      "flow_sends_blocked";
      "flow_credit_overrides";
      "flow_mailbox_rejects";
    ]

let suite =
  [
    Alcotest.test_case "clean network" `Quick test_clean_network;
    Alcotest.test_case "30% loss" `Quick test_lossy_network;
    Alcotest.test_case "50% duplication" `Quick test_duplicating_network;
    Alcotest.test_case "loss+dup+reorder chaos" `Quick test_chaotic_network;
    Alcotest.test_case "timed partition" `Quick test_partition_window;
    Alcotest.test_case "ack latency series" `Quick test_ack_latency_observed;
    Alcotest.test_case "retry cap on a dead link" `Quick test_retry_cap;
    Alcotest.test_case "a Hello before the give-up revives the transfer"
      `Quick test_hello_before_give_up_revives;
    Alcotest.test_case "revival after restart keeps send order" `Quick
      test_revival_order;
    Alcotest.test_case "adjacent-seed senders desynchronize retries" `Quick
      test_retransmit_jitter_desync;
    Alcotest.test_case "dedup watermark across epochs" `Quick
      test_watermark_across_epochs;
    Alcotest.test_case "credit-blocked links drain FIFO per link" `Quick
      test_blocked_links_fifo;
    Alcotest.test_case "restart wipes only its own mailbox" `Quick
      test_restart_wipes_one_mailbox;
    Alcotest.test_case "a lost ack's grant is healed by the stall override"
      `Quick test_lost_ack_grant_healed;
    Alcotest.test_case "a held ack rides on a first answer or leaves at once"
      `Quick test_held_ack;
    Alcotest.test_case "acks ride on first answers only" `Quick
      test_acks_ride_first_answers_only;
    Alcotest.test_case "Hello windows overwrite, never top up" `Quick
      test_hello_windows_overwrite;
    qprop ~count:150 "acks exactly off the exactly-once links"
      ~print:show_fault_set
      QCheck2.Gen.(pair gen_fault_set (int_bound 10_000))
      prop_exactly_once_links;
    Alcotest.test_case "invariants hold at every step of scheduler runs"
      `Quick test_invariant_sweep;
  ]
