(* Crash recovery: the write-ahead journal, crash/restart fault
   injection, the channel's epoch handshake, actor checkpoint + replay,
   and end-to-end conformance of crashy runs against the temporal
   semantics. *)

open Wf_core
open Wf_sim
open Wf_scheduler
open Helpers

(* --- journal ------------------------------------------------------------- *)

let test_journal_basics () =
  let j = Wf_store.Journal.create ~checkpoint_every:3 () in
  checkb "fresh journal has no checkpoint"
    (Wf_store.Journal.recover j = (None, []));
  Wf_store.Journal.append j 1;
  Wf_store.Journal.append j 2;
  checkb "below cadence: no checkpoint wanted"
    (not (Wf_store.Journal.wants_checkpoint j));
  Wf_store.Journal.append j 3;
  checkb "at cadence: checkpoint wanted" (Wf_store.Journal.wants_checkpoint j);
  checkb "suffix oldest first" (Wf_store.Journal.recover j = (None, [ 1; 2; 3 ]));
  Wf_store.Journal.checkpoint j "state@3";
  check Alcotest.int "checkpoint truncates suffix" 0
    (Wf_store.Journal.For_testing.suffix_length j);
  Wf_store.Journal.append j 4;
  checkb "recover = latest checkpoint + suffix"
    (Wf_store.Journal.recover j = (Some "state@3", [ 4 ]));
  check Alcotest.int "total appends survive checkpoints" 4
    (Wf_store.Journal.total_appended j);
  check Alcotest.int "one checkpoint taken" 1
    (Wf_store.Journal.For_testing.checkpoints_taken j);
  checkb "non-positive cadence rejected"
    (try
       ignore (Wf_store.Journal.create ~checkpoint_every:0 ());
       false
     with Invalid_argument _ -> true)

let test_recover_idempotent () =
  (* [recover] is a pure read: double invocation, invocation interleaved
     with appends, and invocation inside the checkpoint window (cadence
     reached but checkpoint not yet taken) must never lose, duplicate,
     or prematurely truncate entries. *)
  let j = Wf_store.Journal.create ~checkpoint_every:3 () in
  Wf_store.Journal.append j 1;
  Wf_store.Journal.append j 2;
  let r1 = Wf_store.Journal.recover j in
  checkb "double recover agrees" (Wf_store.Journal.recover j = r1);
  checkb "recover sees both entries" (r1 = (None, [ 1; 2 ]));
  Wf_store.Journal.append j 3;
  (* Checkpoint window: cadence reached, snapshot not yet written. *)
  checkb "inside the checkpoint window" (Wf_store.Journal.wants_checkpoint j);
  let r2 = Wf_store.Journal.recover j in
  checkb "recover-append-recover sees exactly the one extra entry"
    (r2 = (None, [ 1; 2; 3 ]));
  checkb "recover in the window is side-effect-free"
    (Wf_store.Journal.For_testing.suffix_length j = 3
    && Wf_store.Journal.wants_checkpoint j
    && Wf_store.Journal.For_testing.checkpoints_taken j = 0);
  checkb "and still idempotent" (Wf_store.Journal.recover j = r2);
  Wf_store.Journal.checkpoint j "s@3";
  let r3 = Wf_store.Journal.recover j in
  checkb "after the checkpoint: snapshot, empty suffix"
    (r3 = (Some "s@3", []));
  checkb "idempotent across the checkpoint too"
    (Wf_store.Journal.recover j = r3)

(* --- netsim crash/restart ------------------------------------------------ *)

let raw_net ?(num_sites = 2) ?(seed = 7L) ?(faults = Netsim.no_faults) () =
  Netsim.create ~seed ~faults ~num_sites
    ~latency:{ Netsim.base = 1.0; jitter = 0.0 }
    ()

let test_crash_drops_and_restart () =
  let net = raw_net ~faults:manual_crashes () in
  let received = ref [] in
  Netsim.on_receive net 1 (fun _ m -> received := m :: !received);
  Netsim.on_receive net 0 (fun _ _ -> ());
  let hook_sites = ref [] in
  Netsim.on_restart net (fun s -> hook_sites := s :: !hook_sites);
  Netsim.For_testing.crash_site net 1;
  checkb "site reports crashed" (Netsim.site_crashed net 1);
  Netsim.send net ~src:0 ~dst:1 "lost";
  Netsim.run net;
  checkb "delivery to a crashed site dropped" (!received = []);
  checkb "drop counted" (Wf_obs.Metrics.count (Netsim.stats net) "net_crash_drops" > 0);
  Netsim.For_testing.restart_site net 1;
  checkb "site back up" (not (Netsim.site_crashed net 1));
  check Alcotest.(list int) "restart hook ran with the site id" [ 1 ]
    !hook_sites;
  Netsim.send net ~src:0 ~dst:1 "after";
  Netsim.run net;
  checkb "post-restart delivery works" (!received = [ "after" ])

let test_crash_needs_capability () =
  let refused faults =
    let net = raw_net ~faults () in
    match Netsim.For_testing.crash_site net 1 with
    | () -> false
    | exception Invalid_argument _ -> not (Netsim.site_crashed net 1)
  in
  checkb "no crash probability: manual crash refused" (refused Netsim.no_faults);
  checkb "link faults alone: manual crash refused"
    (refused { Netsim.no_faults with drop_rate = 0.5; duplicate_rate = 0.5 });
  checkb "crash probability with a zero budget: manual crash allowed"
    (not (refused manual_crashes))

let test_crash_budget_terminates () =
  (* Crash probability 1.0 with immediate restart: every delivery
     crashes the destination until the global budget is exhausted, yet
     the run terminates and later messages still arrive (the crash
     fires after the handler, so transitions stay atomic). *)
  let faults =
    {
      Netsim.no_faults with
      crash_on_deliver = 1.0;
      restart_delay = 0.0;
      max_crashes = 3;
    }
  in
  let net = raw_net ~faults () in
  let received = ref 0 in
  Netsim.on_receive net 1 (fun _ () -> incr received);
  Netsim.on_receive net 0 (fun _ _ -> ());
  for i = 0 to 9 do
    (* Space the sends out so each delivery happens after the previous
       restart already completed. *)
    Netsim.schedule net ~delay:(5.0 *. float_of_int i) (fun () ->
        Netsim.send net ~src:0 ~dst:1 ())
  done;
  Netsim.run net;
  check Alcotest.int "every message handled" 10 !received;
  check Alcotest.int "budget caps the crashes" 3
    (Wf_obs.Metrics.count (Netsim.stats net) "net_crashes");
  check Alcotest.int "every crash restarted" 3
    (Wf_obs.Metrics.count (Netsim.stats net) "net_restarts")

let test_control_traffic_never_crashes () =
  let faults =
    { Netsim.no_faults with crash_on_send = 1.0; crash_on_deliver = 1.0 }
  in
  let net = raw_net ~faults () in
  Netsim.on_receive net 1 (fun _ () -> ());
  Netsim.on_receive net 0 (fun _ _ -> ());
  for _ = 1 to 10 do
    Netsim.send ~control:true net ~src:0 ~dst:1 ()
  done;
  Netsim.run net;
  check Alcotest.int "control traffic exempt from crash injection" 0
    (Wf_obs.Metrics.count (Netsim.stats net) "net_crashes");
  Netsim.send net ~src:0 ~dst:1 ();
  Netsim.run net;
  checkb "non-control traffic does crash"
    (Wf_obs.Metrics.count (Netsim.stats net) "net_crashes" > 0)

(* --- channel epochs ------------------------------------------------------ *)

let test_epoch_mid_reuse_not_suppressed () =
  (* The duplicate-after-restart corner: after site 0 restarts, its
     volatile mid counter restarts at 0, so its next message carries the
     same mid as its first pre-crash message — but a fresh epoch.  The
     receiver must treat it as a distinct message, while a stale copy of
     the pre-crash wire message stays suppressed. *)
  let net = raw_net ~faults:manual_crashes () in
  let chan = Channel.create ~rto:5.0 net in
  let received = ref [] in
  Channel.on_receive chan 1 (fun _ m -> received := m :: !received);
  Channel.on_receive chan 0 (fun _ _ -> ());
  Channel.send chan ~src:0 ~dst:1 "pre-crash";
  Netsim.run net;
  Netsim.For_testing.crash_site net 0;
  Netsim.For_testing.restart_site net 0;
  Netsim.run net;
  (* lets the Hello propagate *)
  check Alcotest.int "epoch bumped" 1 (Channel.epoch chan 0);
  Channel.send chan ~src:0 ~dst:1 "post-crash";
  Netsim.run net;
  check
    Alcotest.(list string)
    "same mid, new epoch: delivered, not suppressed"
    [ "pre-crash"; "post-crash" ] (List.rev !received);
  let suppressed_before =
    Wf_obs.Metrics.count (Netsim.stats net) "chan_duplicates_suppressed"
  in
  (* A late retransmission of the pre-crash copy keeps its old epoch and
     is still recognized as a duplicate. *)
  Netsim.send net ~src:0 ~dst:1
    (Channel.Data
       { mid = 0; epoch = 0; origin = 0; prio = false; payload = "pre-crash" });
  Netsim.run net;
  check Alcotest.int "stale pre-crash copy suppressed" 2
    (List.length !received);
  checkb "suppression counted"
    (Wf_obs.Metrics.count (Netsim.stats net) "chan_duplicates_suppressed"
    > suppressed_before)

let test_dead_letter_revival () =
  (* The destination stays crashed long enough for the sender to give
     up; its restart Hello revives the transfer with its original key. *)
  let net = raw_net ~faults:manual_crashes () in
  let chan = Channel.create ~rto:1.0 net in
  let received = ref [] in
  Channel.on_receive chan 1 (fun _ m -> received := m :: !received);
  Channel.on_receive chan 0 (fun _ _ -> ());
  Netsim.For_testing.crash_site net 1;
  Channel.send chan ~src:0 ~dst:1 "revive-me";
  Netsim.run net;
  checkb "sender gave up while the peer was down"
    (Wf_obs.Metrics.count (Netsim.stats net) "chan_gave_up" > 0);
  check Alcotest.int "message parked as dead letter" 1
    (Channel.For_testing.dead_letters chan);
  checkb "nothing delivered yet" (!received = []);
  Netsim.For_testing.restart_site net 1;
  Netsim.run net;
  check Alcotest.(list string) "revived and delivered" [ "revive-me" ]
    !received;
  checkb "revival counted" (Wf_obs.Metrics.count (Netsim.stats net) "chan_revived" > 0);
  check Alcotest.int "no dead letters left" 0 (Channel.For_testing.dead_letters chan);
  check Alcotest.int "nothing pending" 0 (Channel.For_testing.unacked chan)

(* --- actors -------------------------------------------------------------- *)

let recording_ctx () =
  let fired = ref [] and rejected = ref [] in
  let stats = Wf_obs.Metrics.create () in
  let ctx =
    {
      Actor.send = (fun _ _ -> ());
      fire = (fun l -> fired := l :: !fired);
      reject = (fun l -> rejected := l :: !rejected);
      trigger_task = (fun _ -> true);
      meters = Actor.meters stats;
      emit_assim = None;
    }
  in
  (ctx, fired, rejected)

let esym = Literal.symbol (lit "e")

let mk_actor d =
  Actor.create ~sym:esym ~site:0
    ~route:(fun _ -> -1)
    ~guard_pos:(Gtable.cell (Synth.guard d (lit "e")))
    ~guard_neg:(Gtable.cell (Synth.guard d (lit "~e")))
    ~attr_pos:Wf_tasks.Attribute.default
    ~attr_neg:Wf_tasks.Attribute.uncontrollable ()

let test_parked_zero_rejected_while_held () =
  (* Regression: a parked attempt whose guard collapses to 0 while the
     actor's symbol is reserved must be rejected deterministically, not
     parked until a release that may never come. *)
  let ctx, fired, rejected = recording_ctx () in
  let actor = mk_actor (Expr.seq f e) in
  (* under f·e, e may occur only after f *)
  Actor.apply ctx actor (Actor.I_attempt { pol = Literal.Pos; entailed = Guard.top });
  check Alcotest.int "attempt parked on undecided f" 1
    (Actor.parked_count actor);
  (* "a" < "e", so the reservation is granted and the actor is held. *)
  Actor.apply ctx actor
    (Actor.I_message (Messages.Reserve { sym = esym; requester = lit "a" }));
  Actor.apply ctx actor (Actor.I_occurred { lit = lit "~f"; seqno = 1 });
  checkb "guard-0 attempt rejected even while held"
    (List.exists (Literal.equal (lit "e")) !rejected);
  check Alcotest.int "nothing parked forever" 0 (Actor.parked_count actor);
  checkb "nothing fired" (!fired = [])

(* Random actor input scripts: attempts, occurrence announcements of
   random literals (including the actor's own symbol, including
   contradictions — which assimilation refuses identically live and
   replayed), reservation traffic, promises, and sometimes a closing
   rejection sweep. *)
let gen_actor_item =
  let open QCheck2.Gen in
  frequency
    [
      (3, return `Attempt);
      (5, map (fun l -> `Occ l) gen_literal);
      (1, return `Reserve);
      (1, return `Release);
      (1, map (fun l -> `Promise l) gen_literal);
    ]

let gen_actor_script =
  QCheck2.Gen.(
    triple gen_expr (list_size (int_bound 24) gen_actor_item) bool)

let input_of_item seqno = function
  | `Attempt -> Actor.I_attempt { pol = Literal.Pos; entailed = Guard.top }
  | `Occ l ->
      incr seqno;
      Actor.I_occurred { lit = l; seqno = !seqno }
  | `Reserve ->
      Actor.I_message (Messages.Reserve { sym = esym; requester = lit "a" })
  | `Release ->
      Actor.I_message (Messages.Release { sym = esym; holder = lit "a" })
  | `Promise l ->
      Actor.I_message (Messages.Promise { lit = l; to_ = lit "e" })

let actor_replay_agrees =
  qprop ~count:300 "actor checkpoint + replay(suffix) = pre-crash state"
    gen_actor_script
    (fun (d, items, close) ->
      let ctx = Actor.muted_ctx (Wf_obs.Metrics.create ()) in
      let live = mk_actor d in
      let j = Wf_store.Journal.create ~checkpoint_every:4 () in
      let seqno = ref 0 in
      let feed input =
        Wf_store.Journal.append j input;
        Actor.apply ctx live input;
        if Wf_store.Journal.wants_checkpoint j then
          Wf_store.Journal.checkpoint j (Actor.snapshot live)
      in
      List.iter (fun item -> feed (input_of_item seqno item)) items;
      if close then feed Actor.I_close;
      (* Crash: rebuild from the spec-derived seed, restore the latest
         checkpoint, replay the suffix with effects muted.  Both pass
         through the journal codec, as they do on durable media. *)
      let fresh = mk_actor d in
      let ckpt, suffix = Wf_store.Journal.recover j in
      let codec = Actor.codec in
      let round_trip dec enc x = Option.get (dec (encoded enc x)) in
      Option.iter
        (fun s -> Actor.restore fresh (round_trip codec.dec_ckpt codec.enc_ckpt s))
        ckpt;
      List.iter
        (fun x ->
          Actor.apply ctx fresh (round_trip codec.dec_entry codec.enc_entry x))
        suffix;
      Actor.equal_state live fresh)

(* --- actor journal codec --------------------------------------------------- *)

(* Inputs are plain data except a guard, whose product maps compare by
   content rather than by tree shape. *)
let input_equal (a : Actor.input) (b : Actor.input) =
  match (a, b) with
  | I_attempt x, I_attempt y ->
      x.pol = y.pol && Guard.equal x.entailed y.entailed
  | _ -> a = b

let gen_codec_symbol =
  QCheck2.Gen.(
    oneof
      [
        map Literal.symbol gen_literal;
        map (fun k -> Symbol.parametrized "p" [ string_of_int k ]) small_nat;
      ])

(* One input of every shape: an attempt whose entailed guard is
   synthesized from a random dependency, an occurrence, the close, and
   one message per constructor. *)
let gen_codec_inputs =
  let open QCheck2.Gen in
  let+ d = gen_expr
  and+ pol = oneofl [ Literal.Pos; Literal.Neg ]
  and+ a = gen_literal
  and+ b = gen_literal
  and+ offers = list_size (int_bound 3) gen_literal
  and+ sym = gen_codec_symbol
  and+ n = nat in
  Actor.
    [
      I_attempt { pol; entailed = Synth.guard d a };
      I_occurred { lit = b; seqno = n };
      I_close;
    ]
  @ List.map
      (fun m -> Actor.I_message m)
      Messages.
        [
          Announce { lit = a; seqno = n };
          Promise_request { target = a; requester = b; offers };
          Promise { lit = a; to_ = b };
          Reserve { sym; requester = a };
          Reserve_granted { sym; to_ = a };
          Reserve_denied { sym; to_ = b };
          Release { sym; holder = a };
          Recovered { sym; epoch = n };
        ]

let actor_codec_round_trips =
  qprop "actor codec decodes every input to what was encoded"
    gen_codec_inputs (fun inputs ->
      List.for_all
        (fun x ->
          match Actor.codec.dec_entry (encoded Actor.codec.enc_entry x) with
          | Some y -> input_equal x y
          | None -> false)
        inputs)

(* --- parametrized engine ------------------------------------------------- *)

let b task k = Symbol.parametrized ("b_" ^ task) [ string_of_int k ]

let mutex_templates () =
  [
    Ptemplate.mutual_exclusion_template ~t1:"t1" ~t2:"t2";
    Ptemplate.mutual_exclusion_template ~t1:"t2" ~t2:"t1";
  ]

let test_param_recover_equal_state () =
  let eng = Param_sched.create ~checkpoint_every:3 (mutex_templates ()) in
  ignore (Param_sched.attempt eng (b "t1" 1));
  ignore (Param_sched.attempt eng (b "t2" 1));
  (* parked *)
  Param_sched.occurred eng (Literal.pos (Symbol.parametrized "f_t1" [ "1" ]));
  ignore (Param_sched.attempt eng (b "t1" 2));
  let recovered = Param_sched.recover eng in
  checkb "recovered engine is state-identical"
    (Param_sched.equal_state eng recovered);
  (* The recovered engine continues the run seamlessly. *)
  checkb "continues with consistent verdicts"
    (Param_sched.attempt recovered (b "t1" 1) = Param_sched.Already);
  checkb "trace preserved"
    (Trace.equal (Param_sched.trace eng) (Param_sched.trace recovered))

let mutex_workflow () =
  Wf_tasks.Workflow_def.make ~name:"mutex"
    ~tasks:
      [
        Wf_tasks.Workflow_def.task ~instance:"t1"
          ~model:Wf_tasks.Task_model.loop_task
          ~script:(Wf_tasks.Agent.looping 4) ~parametrize:true ();
        Wf_tasks.Workflow_def.task ~instance:"t2"
          ~model:Wf_tasks.Task_model.loop_task
          ~script:(Wf_tasks.Agent.looping 4) ~parametrize:true ();
      ]
    ~deps:[] ()

let test_param_driver_crash_transparent () =
  (* Crashing the engine after every 3rd attempt must be invisible:
     same seed, same trace, run still finishes. *)
  let wf = mutex_workflow () in
  List.iter
    (fun seed ->
      let clean =
        Param_driver.run ~seed:(Int64.of_int seed)
          ~templates:(mutex_templates ()) wf
      in
      let crashy =
        Param_driver.run ~seed:(Int64.of_int seed) ~crash_every:3
          ~templates:(mutex_templates ()) wf
      in
      let name = Printf.sprintf "param crash seed %d" seed in
      checkb (name ^ ": finished") crashy.Param_driver.finished;
      check trace_testable
        (name ^ ": crashes are transparent")
        clean.Param_driver.trace crashy.Param_driver.trace)
    [ 3; 7; 11 ]

(* --- end-to-end conformance under crash faults --------------------------- *)

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

(* Crashes layered on link faults: sites fall over mid-protocol and
   come back a couple of time units later. *)
let crash_load =
  {
    Netsim.no_faults with
    drop_rate = 0.05;
    crash_on_deliver = 0.05;
    crash_on_send = 0.02;
    restart_delay = 2.0;
  }

let run_one ~sched ~faults ~seed wf =
  match sched with
  | `Distributed ->
      Event_sched.run
        ~config:{ Event_sched.default_config with seed; faults }
        wf
  | `Central ->
      Central_sched.run
        ~config:{ Event_sched.default_config with seed; faults }
        wf

let sched_name = function `Distributed -> "dist" | `Central -> "central"

let test_crash_conformance () =
  let agg = ref (Wf_obs.Metrics.create ()) in
  List.iter
    (fun path ->
      let { Wf_lang.Elaborate.def; templates } =
        Wf_lang.Elaborate.load_file path
      in
      if templates <> [] then
        (* Parametrized specs run on the (centralized) param engine:
           crash it every few attempts instead of crashing sites. *)
        List.iter
          (fun seed ->
            let r =
              Param_driver.run ~seed ~crash_every:4
                ~templates:(List.map snd templates)
                def
            in
            let name =
              Printf.sprintf "crashy %s param seed %Ld"
                (Filename.basename path) seed
            in
            checkb (name ^ ": finished") r.Param_driver.finished;
            checkb (name ^ ": nothing parked")
              (r.Param_driver.parked_final = []))
          (Helpers.suite_seeds "conformance-param-crash" 20)
      else
        let deps = Wf_tasks.Workflow_def.dependencies def in
        List.iter
          (fun sched ->
            List.iter
              (fun seed ->
                let r = run_one ~sched ~faults:crash_load ~seed def in
                let name =
                  Printf.sprintf "crashy %s %s seed %Ld"
                    (Filename.basename path) (sched_name sched) seed
                in
                checkb (name ^ ": satisfied") r.Event_sched.satisfied;
                let trace = Event_sched.trace_literals r in
                checkb (name ^ ": well-formed trace")
                  (Trace.well_formed trace);
                List.iter
                  (fun dep ->
                    checkb
                      (name ^ ": denotation of " ^ Expr.to_string dep)
                      (satisfied_by_denotation dep trace))
                  deps;
                agg := Wf_obs.Metrics.merge !agg r.Event_sched.stats)
              (Helpers.suite_seeds "conformance-crash" 20))
          [ `Distributed; `Central ])
    (spec_files ());
  let count name = Wf_obs.Metrics.count !agg name in
  checkb "crashes were injected" (count "net_crashes" > 0);
  checkb "every crash restarted" (count "net_restarts" = count "net_crashes");
  checkb "deliveries were dropped on crashed sites"
    (count "net_crash_drops" > 0);
  checkb "actors recovered by checkpoint + replay"
    (count "actor_recoveries" > 0);
  checkb "journal suffixes were replayed" (count "replayed_entries" > 0);
  checkb "the center recovered from site-0 crashes"
    (count "center_recoveries" > 0)

let test_crash_prob_one_stress () =
  (* The acceptance stress: every non-control delivery crashes its
     destination (until the budget runs out) and restarts are immediate.
     The run must still terminate with a maximal, well-formed trace
     drawn from the same denotation as the fault-free run's — i.e. both
     land in the set of valid traces.  (Literal-for-literal equality
     with the clean run is too strong: crash-induced timing shifts may
     legitimately resolve a free choice — e.g. whether a compensation
     task starts before the close rules it out — differently.) *)
  let stress =
    {
      Netsim.no_faults with
      crash_on_deliver = 1.0;
      restart_delay = 0.0;
    }
  in
  List.iter
    (fun path ->
      let { Wf_lang.Elaborate.def; templates } =
        Wf_lang.Elaborate.load_file path
      in
      if templates = [] then
        let deps = Wf_tasks.Workflow_def.dependencies def in
        List.iter
          (fun sched ->
            let name =
              Printf.sprintf "stress %s %s" (Filename.basename path)
                (sched_name sched)
            in
            let crashy = run_one ~sched ~faults:stress ~seed:9L def in
            let clean =
              run_one ~sched ~faults:Netsim.no_faults ~seed:9L def
            in
            checkb (name ^ ": crashes happened")
              (Wf_obs.Metrics.count crashy.Event_sched.stats "net_crashes" > 0);
            checkb (name ^ ": satisfied") crashy.Event_sched.satisfied;
            checkb (name ^ ": fault-free run satisfied")
              clean.Event_sched.satisfied;
            let trace = Event_sched.trace_literals crashy in
            checkb (name ^ ": well-formed trace") (Trace.well_formed trace);
            List.iter
              (fun dep ->
                checkb
                  (name ^ ": denotation of " ^ Expr.to_string dep)
                  (satisfied_by_denotation dep trace);
                checkb
                  (name ^ ": clean denotation of " ^ Expr.to_string dep)
                  (satisfied_by_denotation dep
                     (Event_sched.trace_literals clean)))
              deps)
          [ `Distributed; `Central ])
    (spec_files ())

(* Storage faults layered on the crash load: every actor recovery now
   reads the salvage of a possibly torn or truncated log instead of the
   pristine in-memory journal.  The mix is deliberately restricted to
   the two {e write-atomicity} faults — torn final frame and lost
   unsynced tail — which can only roll back unsynced [I_occurred]
   entries (the scheduler syncs non-re-derivable inputs at append
   time), and the Recovered handshake re-announces decided fates to the
   rolled-back actor, so the runs must still satisfy every dependency's
   denotation end to end.  [bit_flip] and [ckpt_corrupt] destroy
   {e synced} state the protocol is entitled to assume durable; no
   handshake can reconstruct it, so those faults are excluded from the
   end-to-end claim and covered by the salvage-layer tests and the
   salvage differential in [Test_log] instead. *)
let store_load =
  {
    Wf_store.Media.Sim.torn_write = 0.5;
    lost_tail = 0.4;
    bit_flip = 0.0;
    ckpt_corrupt = 0.0;
    max_faults = 2;
  }

let test_store_fault_conformance () =
  let agg = ref (Wf_obs.Metrics.create ()) in
  List.iter
    (fun path ->
      let { Wf_lang.Elaborate.def; templates } =
        Wf_lang.Elaborate.load_file path
      in
      if templates = [] then begin
        let deps = Wf_tasks.Workflow_def.dependencies def in
        List.iter
          (fun seed ->
            let r =
              Event_sched.run
                ~config:
                  {
                    Event_sched.default_config with
                    seed;
                    faults = crash_load;
                    store = Some store_load;
                    checkpoint_every = 4;
                  }
                def
            in
            let name =
              Printf.sprintf "store-faulty %s seed %Ld"
                (Filename.basename path) seed
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
          (Helpers.suite_seeds "conformance-store" 20)
      end)
    (spec_files ());
  let count name = Wf_obs.Metrics.count !agg name in
  checkb "journals were salvaged" (count "store_salvages" > 0);
  checkb "storage faults fired"
    (count "store_fault_torn" + count "store_fault_lost_tail"
     + count "store_fault_bit_flip"
     + count "store_fault_ckpt_corrupt"
    > 0);
  checkb "faults cost journal entries" (count "store_dropped_entries" > 0);
  checkb "journals synced" (count "store_syncs" > 0)

let test_store_faultfree_matches_memory () =
  (* A fault-free store is pure plumbing: the run's realized trace must
     be identical to the same seed without any store at all. *)
  let path = Filename.concat spec_dir "travel.wf" in
  let { Wf_lang.Elaborate.def; _ } = Wf_lang.Elaborate.load_file path in
  let go store =
    Event_sched.run
      ~config:
        {
          Event_sched.default_config with
          seed = 31L;
          faults = crash_load;
          store;
        }
      def
  in
  let plain = go None in
  let stored = go (Some Wf_store.Media.Sim.no_faults) in
  check
    Alcotest.(list string)
    "fault-free store leaves the trace untouched"
    (List.map Literal.to_string (Event_sched.trace_literals plain))
    (List.map Literal.to_string (Event_sched.trace_literals stored));
  checkb "salvages happened on the stored run"
    (Wf_obs.Metrics.count stored.Event_sched.stats "store_salvages" > 0);
  checkb "no entry was dropped without faults"
    (Wf_obs.Metrics.count stored.Event_sched.stats "store_dropped_entries" = 0)

let test_crashy_determinism () =
  let path = Filename.concat spec_dir "travel.wf" in
  let { Wf_lang.Elaborate.def; _ } = Wf_lang.Elaborate.load_file path in
  let go () =
    Event_sched.run
      ~config:
        { Event_sched.default_config with seed = 31L; faults = crash_load }
      def
  in
  let r1 = go () and r2 = go () in
  check
    Alcotest.(list string)
    "same (seed, crash faults), same trace"
    (List.map Literal.to_string (Event_sched.trace_literals r1))
    (List.map Literal.to_string (Event_sched.trace_literals r2))

let suite =
  [
    Alcotest.test_case "journal append/checkpoint/recover" `Quick
      test_journal_basics;
    Alcotest.test_case "recover is idempotent across the checkpoint window"
      `Quick test_recover_idempotent;
    Alcotest.test_case "crashed site drops deliveries; restart hooks run"
      `Quick test_crash_drops_and_restart;
    Alcotest.test_case "crash budget bounds prob-1.0 injection" `Quick
      test_crash_budget_terminates;
    Alcotest.test_case "control traffic never triggers crashes" `Quick
      test_control_traffic_never_crashes;
    Alcotest.test_case "post-restart mid reuse is not a duplicate" `Quick
      test_epoch_mid_reuse_not_suppressed;
    Alcotest.test_case "dead letters revive on the restart Hello" `Quick
      test_dead_letter_revival;
    Alcotest.test_case "guard-0 parked attempt rejected while reserved" `Quick
      test_parked_zero_rejected_while_held;
    actor_replay_agrees;
    Alcotest.test_case "param engine recovers state-identically" `Quick
      test_param_recover_equal_state;
    Alcotest.test_case "param driver crashes are transparent" `Quick
      test_param_driver_crash_transparent;
    Alcotest.test_case "specs x schedulers x 20 seeds (crash faults)" `Slow
      test_crash_conformance;
    Alcotest.test_case "crash probability 1.0 stress" `Slow
      test_crash_prob_one_stress;
    Alcotest.test_case "specs x 20 seeds (storage faults on crash load)" `Slow
      test_store_fault_conformance;
    Alcotest.test_case "fault-free store is trace-transparent" `Quick
      test_store_faultfree_matches_memory;
    Alcotest.test_case "crashy runs replay deterministically" `Quick
      test_crashy_determinism;
    actor_codec_round_trips;
    Alcotest.test_case "manual crash needs a crash-capable config" `Quick
      test_crash_needs_capability;
  ]
