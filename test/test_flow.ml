(* Overload robustness: credit-based flow control, bounded mailboxes,
   admission control with load shedding, dedup-memory pruning, and
   dead-letter attribution — plus end-to-end conformance sweeps with
   flow control layered under network faults and crashes. *)

open Wf_core
open Wf_sim
open Wf_scheduler
open Helpers

let count stats name = Wf_obs.Metrics.count stats name
let gauge stats name =
  match Wf_obs.Metrics.For_testing.gauge stats name with Some g -> g | None -> 0.0

(* --- channel-level flow control ------------------------------------------ *)

let make_net ?(num_sites = 2) ?(seed = 42L) ?(faults = Netsim.no_faults) () =
  Netsim.create ~seed ~faults ~num_sites
    ~latency:{ Netsim.base = 1.0; jitter = 0.5 }
    ()

(* Burst-send [n] distinct messages 0 -> 1 through a flow-controlled
   channel and return what site 1 consumed, in order. *)
let collect_flow ?(n = 200) ?(rto = 4.0) ?faults ?seed ?(flow = Flow.default_config)
    () =
  let net = make_net ?seed ?faults () in
  let chan = Channel.create ~rto ~flow net in
  let received = ref [] in
  Channel.on_receive chan 1 (fun _src i -> received := i :: !received);
  Channel.on_receive chan 0 (fun _ _ -> ());
  for i = 0 to n - 1 do
    Channel.send chan ~src:0 ~dst:1 i
  done;
  Netsim.run net;
  (net, chan, List.rev !received)

let small_flow =
  {
    Flow.default_config with
    Flow.mailbox_cap = 8;
    credit_window = 4;
    credit_batch = 2;
    service_time = 0.05;
    stall_timeout = 30.0;
  }

let test_bounded_mailbox_exactly_once () =
  (* A burst 25x the mailbox cap: the sender is paced by credits, the
     mailbox never exceeds its bound, and delivery is still exactly-once
     and in order. *)
  let net, chan, received = collect_flow ~n:200 ~flow:small_flow () in
  let stats = Netsim.stats net in
  check Alcotest.(list int) "every message exactly once, in order"
    (List.init 200 Fun.id) received;
  check Alcotest.int "outbox drained" 0 (Channel.For_testing.unacked chan);
  checkb "mailbox stayed within its cap"
    (gauge stats "flow_max_mailbox_depth" <= float_of_int small_flow.Flow.mailbox_cap);
  checkb "credits were consumed" (count stats "flow_credits_consumed" > 0);
  checkb "sends were credit-blocked" (count stats "flow_sends_blocked" > 0);
  checkb "credits were granted back" (count stats "flow_credits_granted" > 0)

let test_mailbox_cap_refusal () =
  (* Window wider than the mailbox: arrivals overrun the cap, are
     refused unacknowledged, and retransmission redelivers them. *)
  let flow =
    {
      Flow.default_config with
      Flow.mailbox_cap = 2;
      credit_window = 16;
      service_time = 0.5;
    }
  in
  let net, chan, received = collect_flow ~n:40 ~rto:2.0 ~flow () in
  let stats = Netsim.stats net in
  (* Refused messages are redelivered by retransmission, so arrival
     order is not preserved — only exactly-once is. *)
  check Alcotest.(list int) "exactly once despite refusals"
    (List.init 40 Fun.id)
    (List.sort compare received);
  check Alcotest.int "outbox drained" 0 (Channel.For_testing.unacked chan);
  checkb "the full mailbox refused arrivals"
    (count stats "flow_mailbox_rejects" > 0);
  checkb "refused arrivals were retransmitted"
    (count stats "chan_retransmits" > 0);
  checkb "mailbox stayed within its cap"
    (gauge stats "flow_max_mailbox_depth" <= 2.0)

(* Credit conservation and drain-to-quiescence under random loads and
   fault mixes: with one active (sender, receiver) pair,
     consumed <= granted + window   (a sender can never spend credits it
                                     was not granted beyond its initial
                                     window), and
     granted <= delivered + window  (a receiver only grants on
                                     consumption, resets aside),
   while the mailbox gauge respects the cap and the run still drains to
   exactly-once delivery once sends stop. *)
let gen_flow_scenario =
  QCheck2.Gen.(
    quad (int_range 20 120) (int_range 1 6) (int_range 2 12) (int_range 0 30))

let prop_credit_conservation (n, window, cap, drop_pct) =
  (* No duplication here: Credit grants are raw control traffic (no
     dedup layer), so a duplicated grant legitimately tops the window
     up twice and the ledger inequality would not be exact. *)
  let faults =
    {
      Netsim.no_faults with
      drop_rate = float_of_int drop_pct /. 100.0;
      reorder_rate = 0.2;
      reorder_window = 4.0;
    }
  in
  let flow =
    {
      Flow.default_config with
      Flow.mailbox_cap = cap;
      credit_window = window;
      credit_batch = max 1 (window / 2);
      service_time = 0.05;
      stall_timeout = 20.0;
    }
  in
  let seed = Int64.of_int (1 + n + (window * 1000) + (cap * 100_000)) in
  let net, chan, received = collect_flow ~n ~rto:3.0 ~faults ~seed ~flow () in
  let stats = Netsim.stats net in
  let consumed = count stats "flow_credits_consumed" in
  let granted = count stats "flow_credits_granted" in
  List.sort compare received = List.init n Fun.id
  && Channel.For_testing.unacked chan = 0
  && consumed <= granted + window
  && granted <= n + window
  && gauge stats "flow_max_mailbox_depth" <= float_of_int cap

(* --- dedup-memory pruning (satellite) ------------------------------------ *)

(* Sample the receiver dedup-set size every few time units while a long
   run streams messages: the cumulative-ack watermark must keep it at
   O(in-flight window), never O(messages).  Sends are paced — an
   instantaneous burst of n messages legitimately holds n entries while
   they are all in flight at once. *)
let dedup_high_water ?faults ?flow ~n () =
  let net = make_net ?faults () in
  let chan = Channel.create ~rto:4.0 ?flow net in
  Channel.on_receive chan 1 (fun _ _ -> ());
  Channel.on_receive chan 0 (fun _ _ -> ());
  let high = ref 0 in
  let rec probe () =
    high := max !high (Channel.For_testing.dedup_size chan);
    if not (Netsim.For_testing.quiescent net) then Netsim.schedule net ~delay:2.0 probe
  in
  Netsim.schedule net ~delay:2.0 probe;
  for i = 0 to n - 1 do
    Netsim.schedule net ~delay:(float_of_int i) (fun () ->
        Channel.send chan ~src:0 ~dst:1 i)
  done;
  Netsim.run net;
  high := max !high (Channel.For_testing.dedup_size chan);
  (chan, !high)

let test_dedup_memory_bounded () =
  (* Fault-free in-order run: mids arrive densely, the watermark tracks
     the stream, and the set stays empty-ish — certainly O(1), not
     O(n). *)
  let chan, high = dedup_high_water ~n:500 () in
  checkb "fault-free dedup set is O(1)" (high <= 2);
  check Alcotest.int "fully pruned after the run" 0 (Channel.For_testing.dedup_size chan);
  (* Heavy reordering tears holes in the mid sequence: the set may hold
     the out-of-order window but never the whole run. *)
  let faults =
    { Netsim.no_faults with reorder_rate = 0.4; reorder_window = 8.0 }
  in
  let chan, high = dedup_high_water ~faults ~n:500 () in
  checkb "reordered dedup set is O(window), not O(messages)"
    (high > 0 || Channel.For_testing.dedup_size chan = 0);
  checkb (Printf.sprintf "high-water %d stays far below 500 messages" high)
    (high <= 64);
  check Alcotest.int "fully pruned once every hole filled" 0
    (Channel.For_testing.dedup_size chan);
  (* Same bound through the flow-controlled consumption path. *)
  let chan, high = dedup_high_water ~faults ~flow:small_flow ~n:300 () in
  checkb
    (Printf.sprintf "flow-controlled high-water %d stays O(window)" high)
    (high <= 64);
  check Alcotest.int "flow path fully pruned" 0 (Channel.For_testing.dedup_size chan)

(* --- dead-letter attribution (satellite) --------------------------------- *)

let test_dead_letter_records_match_counter () =
  (* A permanently dead link: every parked give-up must emit exactly one
     Dead_letter record carrying the peer and the retry count. *)
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
  let sink, records = Wf_obs.Trace.collector () in
  Netsim.set_tracer net (Some sink);
  let chan = Channel.create ~rto:1.0 net in
  Channel.on_receive chan 1 (fun _ _ -> Alcotest.fail "dead link delivered");
  for i = 0 to 2 do
    Channel.send chan ~src:0 ~dst:1 i
  done;
  Netsim.run net;
  let dead =
    List.filter_map
      (fun (r : Wf_obs.Trace.record) ->
        match r.Wf_obs.Trace.kind with
        | Wf_obs.Trace.Dead_letter { dst; tries } -> Some (r.Wf_obs.Trace.site, dst, tries)
        | _ -> None)
      (records ())
  in
  check Alcotest.int "one Dead_letter record per give-up"
    (count (Netsim.stats net) "chan_gave_up")
    (List.length dead);
  check Alcotest.int "all three parked" 3 (List.length dead);
  List.iter
    (fun (site, dst, tries) ->
      check Alcotest.int "sender site" 0 site;
      check Alcotest.int "peer" 1 dst;
      check Alcotest.int "tries at give-up" 30 tries)
    dead;
  check Alcotest.int "records agree with dead_letters" 3
    (Channel.For_testing.dead_letters chan)

(* --- admission control in the schedulers --------------------------------- *)

let spec_dir =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) "../specs";
      "../specs";
      "specs";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> "../specs"

let spec_files () =
  Sys.readdir spec_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".wf")
  |> List.sort compare
  |> List.map (Filename.concat spec_dir)

let load path = Wf_lang.Elaborate.load_file path

(* Aggressively small windows so the gates actually engage on the small
   conformance specs. *)
let tight_flow =
  {
    Flow.mailbox_cap = 3;
    credit_window = 1;
    credit_batch = 1;
    shed_watermark = 1;
    retry_base = 0.5;
    retry_backoff = 2.0;
    retry_max = 8.0;
    probe_every = 4;
    service_time = 0.2;
    stall_timeout = 15.0;
  }

let test_saturated_run_sheds_and_drains () =
  (* Burst arrivals against one-credit windows: shedding must engage
     (Shed records = flow_shed counter), yet the run drains to a
     satisfied, maximal trace once arrivals stop. *)
  let { Wf_lang.Elaborate.def; _ } =
    load (Filename.concat spec_dir "travel.wf")
  in
  let sink, records = Wf_obs.Trace.collector () in
  let r =
    Event_sched.run
      ~config:
        {
          Event_sched.default_config with
          seed = 5L;
          flow = Some tight_flow;
          arrival = Flow.Burst;
          think_time = 0.3;
          tracer = Some sink;
        }
      def
  in
  checkb "saturated run still satisfied" r.Event_sched.satisfied;
  let shed_records =
    List.length
      (List.filter
         (fun (r : Wf_obs.Trace.record) ->
           match r.Wf_obs.Trace.kind with
           | Wf_obs.Trace.Shed _ -> true
           | _ -> false)
         (records ()))
  in
  check Alcotest.int "Shed records = flow_shed counter"
    (count r.Event_sched.stats "flow_shed")
    shed_records;
  checkb "shedding engaged" (count r.Event_sched.stats "flow_shed" > 0);
  checkb "shed attempts were eventually admitted"
    (count r.Event_sched.stats "flow_admitted" > 0);
  checkb "credit records present"
    (List.exists
       (fun (r : Wf_obs.Trace.record) ->
         match r.Wf_obs.Trace.kind with
         | Wf_obs.Trace.Credit _ -> true
         | _ -> false)
       (records ()))

let test_flow_runs_deterministic () =
  let { Wf_lang.Elaborate.def; _ } =
    load (Filename.concat spec_dir "travel.wf")
  in
  let go () =
    Event_sched.run
      ~config:
        {
          Event_sched.default_config with
          seed = 77L;
          flow = Some tight_flow;
          arrival = Flow.Burst;
          faults = { Netsim.no_faults with drop_rate = 0.1 };
        }
      def
  in
  let r1 = go () and r2 = go () in
  check
    Alcotest.(list string)
    "same (seed, flow config), same trace"
    (List.map Literal.to_string (Event_sched.trace_literals r1))
    (List.map Literal.to_string (Event_sched.trace_literals r2))

(* QCheck no-deadlock: any small flow configuration, any seed, under
   light faults — the run must always drain to quiescence with every
   dependency satisfied once arrivals stop. *)
let gen_no_deadlock =
  QCheck2.Gen.(
    quad (int_range 1 4) (int_range 1 8) (int_range 1 6) (int_range 1 1000))

let travel_def =
  lazy
    (let { Wf_lang.Elaborate.def; _ } =
       load (Filename.concat spec_dir "travel.wf")
     in
     def)

let prop_no_deadlock (window, cap, watermark, seed) =
  let def = Lazy.force travel_def in
    let flow =
      {
        Flow.default_config with
        Flow.mailbox_cap = cap;
        credit_window = window;
        credit_batch = max 1 (window / 2);
        shed_watermark = watermark;
        retry_base = 0.5;
        retry_max = 8.0;
        probe_every = 4;
        service_time = 0.1;
        stall_timeout = 12.0;
      }
    in
    let r =
      Event_sched.run
        ~config:
          {
            Event_sched.default_config with
            seed = Int64.of_int seed;
            flow = Some flow;
            arrival = (if seed mod 2 = 0 then Flow.Burst else Flow.Poisson);
            faults =
              { Netsim.no_faults with drop_rate = 0.1; duplicate_rate = 0.05 };
          }
        def
    in
    r.Event_sched.satisfied

(* --- overload conformance sweeps ----------------------------------------- *)

let overload_faults =
  {
    Netsim.no_faults with
    drop_rate = 0.15;
    duplicate_rate = 0.1;
    reorder_rate = 0.1;
    reorder_window = 4.0;
  }

let crashy_overload_faults =
  {
    Netsim.no_faults with
    drop_rate = 0.05;
    crash_on_deliver = 0.04;
    crash_on_send = 0.02;
    restart_delay = 2.0;
  }

let sweep_flow =
  (* Small enough to engage on small specs, large enough to keep the
     sweep fast. *)
  {
    Flow.default_config with
    Flow.mailbox_cap = 4;
    credit_window = 2;
    credit_batch = 1;
    shed_watermark = 2;
    retry_base = 0.5;
    retry_max = 8.0;
    probe_every = 4;
    service_time = 0.1;
    stall_timeout = 15.0;
  }

let run_one ~sched ~faults ~seed ~arrival wf =
  match sched with
  | `Distributed ->
      Event_sched.run
        ~config:
          {
            Event_sched.default_config with
            seed;
            faults;
            flow = Some sweep_flow;
            arrival;
          }
        wf
  | `Central ->
      Central_sched.run
        ~config:
          {
            Event_sched.default_config with
            seed;
            faults;
            flow = Some sweep_flow;
            arrival;
          }
        wf

let sched_name = function `Distributed -> "dist" | `Central -> "central"

let param_flow_sweep ~label path def templates seeds =
  List.iter
    (fun seed ->
      let r =
        Param_driver.run ~seed ~flow:sweep_flow
          ~templates:(List.map snd templates)
          def
      in
      let name =
        Printf.sprintf "%s %s param seed %Ld" label (Filename.basename path)
          seed
      in
      checkb (name ^ ": finished") r.Param_driver.finished;
      checkb (name ^ ": nothing parked") (r.Param_driver.parked_final = []))
    seeds

let overload_sweep ~faults ~label ~arrival ~seeds () =
  let agg = ref (Wf_obs.Metrics.create ()) in
  List.iter
    (fun path ->
      let { Wf_lang.Elaborate.def; templates } = load path in
      if templates <> [] then
        param_flow_sweep ~label path def templates (suite_seeds ("flow-param-" ^ label) (List.length seeds))
      else
        let deps = Wf_tasks.Workflow_def.dependencies def in
        List.iter
          (fun sched ->
            List.iter
              (fun seed ->
                let r = run_one ~sched ~faults ~seed ~arrival def in
                let name =
                  Printf.sprintf "%s %s %s seed %Ld" label
                    (Filename.basename path) (sched_name sched) seed
                in
                checkb (name ^ ": satisfied") r.Event_sched.satisfied;
                let trace = Event_sched.trace_literals r in
                checkb (name ^ ": well-formed trace") (Trace.well_formed trace);
                List.iter
                  (fun dep ->
                    checkb
                      (name ^ ": denotation of " ^ Expr.to_string dep)
                      (satisfied_by_denotation dep trace))
                  deps;
                agg := Wf_obs.Metrics.merge !agg r.Event_sched.stats)
              seeds)
          [ `Distributed; `Central ])
    (spec_files ());
  !agg

let test_overload_conformance () =
  (* Burst arrivals + faults + tight windows: exactly-once and full
     dependency satisfaction must survive the overload machinery. *)
  let agg =
    overload_sweep ~faults:overload_faults ~label:"overload"
      ~arrival:Flow.Burst
      ~seeds:(suite_seeds "flow-overload" 10)
      ()
  in
  checkb "credit gating engaged" (count agg "flow_credits_consumed" > 0);
  checkb "sends were credit-blocked" (count agg "flow_sends_blocked" > 0);
  checkb "network faults engaged" (count agg "net_drops" > 0);
  checkb "no message permanently lost" (count agg "chan_gave_up" = 0)

let test_crash_conformance_with_flow () =
  (* The acceptance bar: crash/restart conformance still passes with
     credit windows active — epoch bumps re-announce windows and the
     recovery handshake rides the priority lane. *)
  let agg =
    overload_sweep ~faults:crashy_overload_faults ~label:"crash+flow"
      ~arrival:Flow.Poisson
      ~seeds:(suite_seeds "flow-crash" 10)
      ()
  in
  checkb "crashes were injected" (count agg "net_crashes" > 0);
  checkb "every crash restarted"
    (count agg "net_restarts" = count agg "net_crashes");
  checkb "credit gating engaged" (count agg "flow_credits_consumed" > 0)

(* --- retry backoff clamp ------------------------------------------------- *)

let test_retry_backoff_clamped () =
  (* Regression: the exponential backoff must clamp at [retry_max] even
     after an arbitrarily long shed streak — jitter included.  Probe
     admission is disabled so every one of the 1000 attempts sheds. *)
  let cfg =
    {
      Flow.default_config with
      Flow.shed_watermark = 1;
      probe_every = 0;
      retry_base = 0.5;
      retry_backoff = 2.0;
      retry_max = 8.0;
    }
  in
  let fl =
    Flow.create ~config:cfg ~num_sites:1 ~seed:7L
      ~stats:(Wf_obs.Metrics.create ())
      ~now:(fun () -> 0.0)
      ()
  in
  let max_seen = ref 0.0 in
  for _ = 1 to 1000 do
    match Flow.admit fl ~site:0 ~depth:10 ~first:0.0 () with
    | Flow.Admitted -> Alcotest.fail "probes disabled: nothing may admit"
    | Flow.Busy { retry_after } ->
        checkb "retry horizon finite" (Float.is_finite retry_after);
        checkb "retry horizon positive" (retry_after > 0.0);
        if retry_after > !max_seen then max_seen := retry_after
  done;
  checkb "1000-shed streak stays under retry_max"
    (!max_seen <= cfg.Flow.retry_max);
  checkb "the streak actually saturated the cap"
    (!max_seen >= cfg.Flow.retry_base)

(* --- parametrized-engine admission gate ---------------------------------- *)

(* The fleet workload shape the overload bench uses: per binding x,
   either the commit never happens or its prepare precedes it
   (~c[x] + p[x]·c[x]).  Prepares are upstream facts injected with
   [occurred]; commits are admission-gated [attempt]s whose guard is
   "p[x] has occurred" — so commits ahead of their prepare park,
   admission sheds new work over the watermark, and probe admissions
   keep shed tokens live until the backlog drains. *)
let chain_dep =
  Ptemplate.choice_all
    [
      Ptemplate.atom ~pol:Literal.Neg "c" [ Ptemplate.Var "x" ];
      Ptemplate.seq
        (Ptemplate.atom "p" [ Ptemplate.Var "x" ])
        (Ptemplate.atom "c" [ Ptemplate.Var "x" ]);
    ]

let test_param_engine_sheds_and_drains () =
  let flow =
    {
      Flow.default_config with
      Flow.shed_watermark = 2;
      probe_every = 4;
      retry_base = 1.0;
      retry_max = 4.0;
    }
  in
  let eng = Param_sched.create ~flow [ chain_dep ] in
  let jobs = 12 in
  let sym b i = Symbol.parametrized b [ string_of_int i ] in
  (* Commit-first attempts park; past the watermark they shed. *)
  let shed = ref [] in
  let parked = ref 0 in
  for i = 0 to jobs - 1 do
    match Param_sched.attempt eng (sym "c" i) with
    | Param_sched.Parked -> incr parked
    | Param_sched.Busy _ -> shed := i :: !shed
    | Param_sched.Accepted | Param_sched.Already | Param_sched.Rejected ->
        Alcotest.fail "commit before prepare cannot be decided"
  done;
  checkb "watermark parked a few" (!parked >= 2);
  checkb "the rest shed" (!shed <> []);
  check Alcotest.int "parked counter tracks the parked list"
    (List.length (Param_sched.parked eng))
    (Param_sched.parked_count eng);
  checkb "shed counter agrees"
    (count (Param_sched.stats eng) "flow_shed" = List.length !shed);
  (* Prepares are uncontrollable upstream events: [occurred] bypasses
     admission and each one un-parks its commit. *)
  for i = 0 to jobs - 1 do
    Param_sched.occurred eng (Literal.pos (sym "p" i))
  done;
  (* The shed commits retry and are eventually admitted (the backlog
     has drained, so the gate is open again). *)
  let retry_until_admitted s =
    let rec go n =
      if n > 100 then Alcotest.fail "attempt never admitted"
      else
        match Param_sched.attempt eng s with
        | Param_sched.Busy _ -> go (n + 1)
        | out -> out
    in
    go 0
  in
  List.iter
    (fun i ->
      match retry_until_admitted (sym "c" i) with
      | Param_sched.Accepted | Param_sched.Already -> ()
      | _ -> Alcotest.fail "drained commit must be accepted")
    (List.rev !shed);
  check Alcotest.int "nothing left parked" 0
    (List.length (Param_sched.parked eng));
  check Alcotest.int "parked counter drained with the list" 0
    (Param_sched.parked_count eng);
  (* Exactly-once: each token's prepare and commit in the trace once,
     prepare first. *)
  let trace = Param_sched.trace eng in
  check Alcotest.int "every admitted event exactly once" (2 * jobs)
    (Trace.length trace);
  let seen = Hashtbl.create 32 in
  List.iter
    (fun l ->
      let name = Symbol.name (Literal.symbol l) in
      checkb (name ^ " occurs once") (not (Hashtbl.mem seen name));
      Hashtbl.replace seen name ())
    trace;
  for i = 0 to jobs - 1 do
    let pos b =
      let rec go k = function
        | [] -> -1
        | l :: rest ->
            if Symbol.equal (Literal.symbol l) (sym b i) then k
            else go (k + 1) rest
      in
      go 0 trace
    in
    checkb
      (Printf.sprintf "p[%d] before c[%d]" i i)
      (pos "p" >= 0 && pos "c" > pos "p")
  done

let test_param_flow_survives_recovery () =
  (* The admission gate journals only admitted attempts: a crash replay
     sees exactly the admitted sequence, and the recovered engine keeps
     shedding with the same ledger. *)
  let flow = { Flow.default_config with Flow.shed_watermark = 2; probe_every = 0 } in
  let eng = Param_sched.create ~flow [ chain_dep ] in
  let sym b i = Symbol.parametrized b [ string_of_int i ] in
  for i = 0 to 3 do
    ignore (Param_sched.attempt eng (sym "c" i))
  done;
  let eng' = Param_sched.recover eng in
  checkb "recovered state matches" (Param_sched.equal_state eng eng');
  check Alcotest.int "parked counter rebuilt on restore"
    (List.length (Param_sched.parked eng'))
    (Param_sched.parked_count eng');
  (match Param_sched.attempt eng' (sym "c" 9) with
  | Param_sched.Busy _ -> ()
  | _ -> Alcotest.fail "recovered engine must still shed over the watermark");
  (* [occurred] bypasses admission (uncontrollable events are never
     shed): force the prepares, which drains the parked commits and
     un-gates the admission controller. *)
  for i = 0 to 3 do
    Param_sched.occurred eng' (Literal.pos (sym "p" i))
  done;
  check Alcotest.int "backlog drained" 0
    (List.length (Param_sched.parked eng'));
  (match Param_sched.attempt eng' (sym "c" 2) with
  | Param_sched.Accepted -> ()
  | _ -> Alcotest.fail "admission must reopen once the backlog drains")

(* Credits granted count credits returned for consumed messages, so
   they never exceed the messages the mailboxes took in; a window
   restated after a restart counts once in flow_window_resets, one per
   [reset] credit record, whatever its size. *)
let test_window_resets_apart_from_grants () =
  let { Wf_lang.Elaborate.def; _ } =
    load (Filename.concat spec_dir "travel.wf")
  in
  let resets_seen = ref 0 in
  List.iter
    (fun seed ->
      let sink, records = Wf_obs.Trace.collector () in
      let r =
        Event_sched.run
          ~config:
            {
              Event_sched.default_config with
              seed;
              faults =
                {
                  Wf_sim.Netsim.no_faults with
                  drop_rate = 0.1;
                  crash_on_deliver = 0.1;
                  crash_on_send = 0.02;
                };
              flow = Some { Flow.default_config with credit_window = 4 };
              tracer = Some sink;
            }
          def
      in
      let count = Wf_obs.Metrics.count r.Event_sched.stats in
      let label = Printf.sprintf "seed %Ld" seed in
      let resets, granted =
        List.fold_left
          (fun (resets, granted) (rc : Wf_obs.Trace.record) ->
            match rc.Wf_obs.Trace.kind with
            | Wf_obs.Trace.Credit { reset = true; _ } -> (resets + 1, granted)
            | Wf_obs.Trace.Credit { grant; reset = false; _ } ->
                (resets, granted + grant)
            | _ -> (resets, granted))
          (0, 0) (records ())
      in
      resets_seen := !resets_seen + resets;
      checkb (label ^ ": satisfied") r.Event_sched.satisfied;
      checkb (label ^ ": granted <= enqueued")
        (count "flow_credits_granted" <= count "flow_mailbox_enqueued");
      check Alcotest.int (label ^ ": one reset per reset record") resets
        (count "flow_window_resets");
      check Alcotest.int (label ^ ": granted = incremental credit records")
        granted (count "flow_credits_granted"))
    [ 11L; 12L; 13L; 14L ];
  checkb "restarts restated windows" (!resets_seen > 0)

(* `wfsim specs/travel.wf --seed 1 --crash-prob 0.3 --restart-delay
   3000 --max-crashes 2 --credit-window 2 --drop-rate 0.2 -s central`:
   site 0 restarts while site 1 is still retrying its [Occurred s_book]
   toward it, so the restart Hello finds no dead letter to revive.  The
   transfer must restart at its give-up instead of dying there, or the
   center never learns of s_book and ~s_buy + s_book is violated. *)
let test_central_retry_outlives_restart () =
  let { Wf_lang.Elaborate.def; _ } =
    load (Filename.concat spec_dir "travel.wf")
  in
  let r =
    Central_sched.run
      ~config:
        {
          Event_sched.default_config with
          seed = 1L;
          faults =
            {
              Wf_sim.Netsim.no_faults with
              drop_rate = 0.2;
              reorder_window = 5.0;
              crash_on_deliver = 0.3;
              restart_delay = 3000.0;
              max_crashes = 2;
            };
          flow = Some { Flow.default_config with credit_window = 2 };
        }
      def
  in
  checkb "satisfied" r.Event_sched.satisfied;
  checkb "a transfer restarted instead of giving up"
    (Wf_obs.Metrics.count r.Event_sched.stats "chan_revived" > 0)

let suite =
  [
    Alcotest.test_case "bounded mailbox, exactly-once in order" `Quick
      test_bounded_mailbox_exactly_once;
    Alcotest.test_case "full mailbox refuses, retransmit redelivers" `Quick
      test_mailbox_cap_refusal;
    qprop ~count:40 "credit conservation + drain (seeded loads x faults)"
      gen_flow_scenario prop_credit_conservation;
    Alcotest.test_case "dedup memory pruned to O(window)" `Quick
      test_dedup_memory_bounded;
    Alcotest.test_case "Dead_letter records match chan_gave_up" `Quick
      test_dead_letter_records_match_counter;
    Alcotest.test_case "saturated run sheds and drains" `Quick
      test_saturated_run_sheds_and_drains;
    Alcotest.test_case "flow-controlled runs replay deterministically" `Quick
      test_flow_runs_deterministic;
    qprop ~count:25 "no deadlock: any tight config drains satisfied"
      gen_no_deadlock prop_no_deadlock;
    Alcotest.test_case "overload conformance (specs x scheds x 10 seeds)" `Slow
      test_overload_conformance;
    Alcotest.test_case "crash conformance with credit windows" `Slow
      test_crash_conformance_with_flow;
    Alcotest.test_case "retry backoff clamps at retry_max" `Quick
      test_retry_backoff_clamped;
    Alcotest.test_case "param engine sheds, drains, exactly-once" `Quick
      test_param_engine_sheds_and_drains;
    Alcotest.test_case "window resets count apart from granted credits"
      `Quick test_window_resets_apart_from_grants;
    Alcotest.test_case "central: a retry outlives its peer's restart" `Quick
      test_central_retry_outlives_restart;
    Alcotest.test_case "param admission gate survives recovery" `Quick
      test_param_flow_survives_recovery;
  ]
