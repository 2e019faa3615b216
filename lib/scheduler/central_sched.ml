open Wf_core
open Wf_tasks

type msg =
  | Attempt of Literal.t * Literal.t list
    (* agent -> center: the event plus the complements its transition
       entails (events it would make unreachable) *)
  | Occurred of Literal.t (* agent -> center (uncontrollable) *)
  | Accepted of Literal.t (* center -> agent *)
  | Rejected of Literal.t
  | Trigger of Literal.t

type dep_state = {
  dep : Expr.t;
  lits : Literal.Set.t; (* Expr.literals dep, precomputed: [mentions] is hot *)
  automaton : Automaton.t;
  mutable state : Automaton.state;
  feas : (Automaton.state * Literal.t, bool) Hashtbl.t;
      (* memoized [feasible] DFS results: the answer is a pure function
         of (current state, literal) over the fixed automaton, and the
         same query recurs for every parked re-examination *)
}

(* Journaled center inputs and the checkpointed volatile state.

   The durable/volatile split: the occurrence log ([occurrences],
   [seqno], [rejected]) is durable by assumption — it is the run's
   ground truth, committed once per event.  The residual-automaton
   states, parked attempts, trigger set, and decided view are volatile
   and reconstructed after a crash by replaying the input journal
   (checkpoint + suffix) with commits, sends and [on_event] muted. *)
type c_input =
  | C_attempt of Literal.t * Literal.t list
  | C_occurred of Literal.t
  | C_reject of Literal.t (* closing phase: evict a parked attempt *)

type c_snapshot = {
  cs_states : Automaton.state list; (* aligned with [deps] *)
  cs_parked : (Literal.t * Literal.t list) list;
  cs_triggered : Literal.Set.t;
  cs_decided : Symbol.t list;
}

(* Binary codec for the center's durable journal (threaded through
   recovery whenever [config.store] backs the journal with simulated
   storage). *)
module B = Wf_store.Binio

let input_codec =
  B.union B.uint
    [
      B.case 0 (B.pair Wire.literal (B.list Wire.literal))
        (fun (lit, entailed) -> C_attempt (lit, entailed))
        (function C_attempt (lit, entailed) -> Some (lit, entailed) | _ -> None);
      B.case 1 Wire.literal
        (fun lit -> C_occurred lit)
        (function C_occurred lit -> Some lit | _ -> None);
      B.case 2 Wire.literal
        (fun lit -> C_reject lit)
        (function C_reject lit -> Some lit | _ -> None);
    ]

let snapshot_codec =
  B.map
    (fun ((cs_states, cs_parked), (cs_triggered, cs_decided)) ->
      { cs_states; cs_parked; cs_triggered; cs_decided })
    (fun s -> ((s.cs_states, s.cs_parked), (s.cs_triggered, s.cs_decided)))
    B.(
      pair
        (pair (list int) (list (pair Wire.literal (list Wire.literal))))
        (pair Wire.literal_set (list Wire.symbol)))

(* The counters' keys, numbered once per process, and their handles,
   resolved once per run. *)
let k_occurrences = Wf_obs.Metrics.key "occurrences"
let k_dead_residuals = Wf_obs.Metrics.key "dead_residuals"
let k_parked_evaluations = Wf_obs.Metrics.key "parked_evaluations"
let k_rejections = Wf_obs.Metrics.key "rejections"
let k_triggers = Wf_obs.Metrics.key "triggers"
let k_recoveries = Wf_obs.Metrics.key "center_recoveries"
let k_replayed = Wf_obs.Metrics.key "center_replayed_entries"
let k_attempts = Wf_obs.Metrics.key "attempts"
let k_trigger_faults = Wf_obs.Metrics.key "trigger_faults"

type meters = {
  occurrences : Wf_obs.Metrics.counter;
  dead_residuals : Wf_obs.Metrics.counter;
  parked_evaluations : Wf_obs.Metrics.counter;
  rejections : Wf_obs.Metrics.counter;
  triggers : Wf_obs.Metrics.counter;
  recoveries : Wf_obs.Metrics.counter;
  replayed : Wf_obs.Metrics.counter;
  attempts : Wf_obs.Metrics.counter;
  trigger_faults : Wf_obs.Metrics.counter;
}

let meters stats =
  let c = Wf_obs.Metrics.counter stats in
  {
    occurrences = c k_occurrences;
    dead_residuals = c k_dead_residuals;
    parked_evaluations = c k_parked_evaluations;
    rejections = c k_rejections;
    triggers = c k_triggers;
    recoveries = c k_recoveries;
    replayed = c k_replayed;
    attempts = c k_attempts;
    trigger_faults = c k_trigger_faults;
  }

type runtime = {
  wf : Workflow_def.t;
  m : meters;
  cfg : Event_sched.config;
  plan : Run_plan.t;
  net : msg Channel.wire Wf_sim.Netsim.t;
  chan : msg Channel.t;
  deps : dep_state list;
  journal : (c_input, c_snapshot) Wf_store.Journal.t;
  agents : (Agent.t * int) array; (* by task rank: agent, site *)
  decided_set : unit Symbol_tbl.t;
  mutable replaying : bool;
  mutable parked : (Literal.t * Literal.t list) list;
  mutable triggered : Literal.Set.t;
  mutable seqno : int;
  mutable occurrences : Event_sched.occurrence list; (* newest first *)
  mutable rejected : Literal.t list;
}

let central_site = 0

let decided rt sym = Symbol_tbl.mem rt.decided_set sym

let mentions ds lit = Literal.Set.mem lit ds.lits

(* Is the event acceptable right now: every affected residual, stepped
   by the event and then by the complements its transition entails,
   stays completable? *)
let acceptable rt lit entailed =
  List.for_all
    (fun ds ->
      let next =
        List.fold_left
          (fun st l ->
            if mentions ds l then Automaton.step ds.automaton st l else st)
          ds.state (lit :: entailed)
      in
      Automaton.can_complete ds.automaton next)
    rt.deps

(* Accepting an event may create obligations: literals required on every
   accepting path of some residual.  The center can only vouch for
   events that occurred, that it can trigger, or that are themselves
   awaiting acceptance (the centralized analog of the promise
   consensus); otherwise an uncontrollable event could later force a
   violation.  [assumed] is the set of parked literals being accepted
   jointly. *)
let obligations_after rt lit entailed =
  List.fold_left
    (fun acc ds ->
      let next =
        List.fold_left
          (fun st l ->
            if mentions ds l then Automaton.step ds.automaton st l else st)
          ds.state (lit :: entailed)
      in
      if next <> ds.state || mentions ds lit then
        Literal.Set.union acc (Automaton.required_literals ds.automaton next)
      else acc)
    Literal.Set.empty rt.deps

let obligations_safe rt ~assumed lit entailed =
  Literal.Set.for_all
    (fun l ->
      decided rt (Literal.symbol l)
      || (Literal.is_pos l
         && ((Workflow_def.attribute_of rt.wf (Literal.symbol l))
               .Attribute.triggerable
            || List.exists (Literal.equal l) assumed)))
    (obligations_after rt lit entailed)

(* Could the event ever become acceptable: in every affected dependency,
   some reachable state steps on [lit] to a completable one. *)
let feasible rt lit =
  List.for_all
    (fun ds ->
      if not (mentions ds lit) then true
      else
        match Hashtbl.find_opt ds.feas (ds.state, lit) with
        | Some b -> b
        | None ->
        let aut = ds.automaton in
        let n = Automaton.num_states aut in
        let visited = Array.make n false in
        let rec explore s =
          if visited.(s) then false
          else begin
            visited.(s) <- true;
            let next = Automaton.step aut s lit in
            Automaton.can_complete aut next
            || List.exists
                 (fun l ->
                   let s' = Automaton.step aut s l in
                   (not (Automaton.is_dead aut s')) && explore s')
                 (Automaton.alphabet aut)
          end
        in
        let b = explore ds.state in
        Hashtbl.add ds.feas (ds.state, lit) b;
        b)
    rt.deps

(* The agent owning the literal's symbol, with its site. *)
let owner rt lit =
  Option.bind (Run_plan.index rt.plan (Literal.symbol lit)) (fun i ->
      Option.map (Array.get rt.agents) (Run_plan.actors rt.plan).(i).task)

let send_to_owner rt lit m =
  if not rt.replaying then
    match owner rt lit with
    | Some (_, site) -> Channel.send rt.chan ~src:central_site ~dst:site m
    | None -> ()

(* Assimilation trace point of the central decision procedure.  The
   "guard" of the center is the joint residual-automaton state, so the
   interned id is a fingerprint of the state vector: equal vectors
   trace equal ids.  Replay is silent — the pre-crash incarnation
   already emitted these decisions. *)
let emit_assim rt lit outcome =
  if not rt.replaying then
    match Wf_sim.Netsim.tracer rt.net with
    | None -> ()
    | Some sink ->
        let guard = Hashtbl.hash (List.map (fun ds -> ds.state) rt.deps) in
        Wf_obs.Trace.emit sink
          (Wf_obs.Trace.make
             ~time:(Wf_sim.Netsim.now rt.net)
             ~site:central_site
             ~actor:(Symbol.name (Literal.symbol lit))
             (Wf_obs.Trace.Assim { outcome; guard }))

let rec record rt lit =
  if not (decided rt (Literal.symbol lit)) then begin
    Symbol_tbl.replace rt.decided_set (Literal.symbol lit) ();
    (* Durable commit: during replay the occurrence log already holds
       the event (committed by the pre-crash incarnation), so only the
       volatile state below is rebuilt. *)
    if not rt.replaying then begin
      rt.seqno <- rt.seqno + 1;
      let o =
        { Event_sched.lit; seqno = rt.seqno; time = Wf_sim.Netsim.now rt.net }
      in
      rt.occurrences <- o :: rt.occurrences;
      rt.cfg.on_event o;
      Wf_obs.Metrics.bump rt.m.occurrences
    end;
    List.iter
      (fun ds ->
        if mentions ds lit then begin
          ds.state <- Automaton.step ds.automaton ds.state lit;
          if Automaton.is_dead ds.automaton ds.state && not rt.replaying then
            Wf_obs.Metrics.bump rt.m.dead_residuals
        end)
      rt.deps;
    retry_parked rt;
    fire_triggers rt
  end

(* Re-examine parked attempts after every state change. *)
and retry_parked rt =
  let parked = rt.parked in
  rt.parked <- [];
  List.iter (fun (lit, entailed) -> decide ~retry:true rt lit entailed) parked

and decide ?(retry = false) rt lit entailed =
  if decided rt (Literal.symbol lit) then begin
    emit_assim rt lit Wf_obs.Trace.Rejected;
    send_to_owner rt lit (Rejected lit)
  end
  else if
    acceptable rt lit entailed
    && obligations_safe rt
         ~assumed:(lit :: List.map fst rt.parked)
         lit entailed
  then begin
    emit_assim rt lit Wf_obs.Trace.Enabled;
    record rt lit;
    send_to_owner rt lit (Accepted lit)
  end
  else if feasible rt lit then begin
    if not rt.replaying then
      Wf_obs.Metrics.bump rt.m.parked_evaluations;
    (* a re-examination that stays parked is a reduction step: the
       state vector moved, the attempt did not yet enable *)
    emit_assim rt lit
      (if retry then Wf_obs.Trace.Reduced else Wf_obs.Trace.Parked);
    rt.parked <- (lit, entailed) :: rt.parked
  end
  else begin
    if not rt.replaying then begin
      rt.rejected <- lit :: rt.rejected;
      Wf_obs.Metrics.bump rt.m.rejections
    end;
    emit_assim rt lit Wf_obs.Trace.Rejected;
    send_to_owner rt lit (Rejected lit)
  end

(* Trigger triggerable events required on every accepting path of some
   residual. *)
and fire_triggers rt =
  List.iter
    (fun ds ->
      let required = Automaton.required_literals ds.automaton ds.state in
      Literal.Set.iter
        (fun l ->
          if
            Literal.is_pos l
            && (not (decided rt (Literal.symbol l)))
            && (not (Literal.Set.mem l rt.triggered))
            && (Workflow_def.attribute_of rt.wf (Literal.symbol l))
                 .Attribute.triggerable
          then begin
            rt.triggered <- Literal.Set.add l rt.triggered;
            if not rt.replaying then Wf_obs.Metrics.bump rt.m.triggers;
            send_to_owner rt l (Trigger l)
          end)
        required)
    rt.deps

let apply_center rt = function
  | C_attempt (lit, entailed) -> decide rt lit entailed
  | C_occurred lit -> record rt lit
  | C_reject lit ->
      rt.parked <-
        List.filter (fun (l, _) -> not (Literal.equal l lit)) rt.parked;
      emit_assim rt lit Wf_obs.Trace.Rejected;
      if not rt.replaying then begin
        rt.rejected <- lit :: rt.rejected;
        send_to_owner rt lit (Rejected lit)
      end

(* Sorted, so the checkpoint's bytes do not depend on the order in
   which the table happens to hold its symbols. *)
let decided_list tbl =
  List.sort Symbol.compare (Symbol_tbl.fold (fun sym () acc -> sym :: acc) tbl [])

let snapshot_center rt =
  {
    cs_states = List.map (fun ds -> ds.state) rt.deps;
    cs_parked = rt.parked;
    cs_triggered = rt.triggered;
    cs_decided = decided_list rt.decided_set;
  }

(* The journaled entry point of the center: write ahead, apply,
   checkpoint when due.  [apply_center] never re-enters it (the
   recursion through [record]/[retry_parked]/[fire_triggers] is all
   internal), so the post-apply state is always a transition boundary. *)
let deliver_center rt input =
  Wf_store.Journal.append rt.journal input;
  (* The center models synchronous durable commits (its occurrence log
     is "durable by assumption"), so every append is synced — a crash
     can corrupt its storage (bit flips, checkpoint damage) but never
     lose a committed tail. *)
  Wf_store.Journal.sync rt.journal;
  apply_center rt input;
  if Wf_store.Journal.wants_checkpoint rt.journal then
    Wf_store.Journal.checkpoint rt.journal (snapshot_center rt)

let recover_center rt =
  Wf_store.Journal.crash rt.journal;
  rt.replaying <- true;
  List.iter (fun ds -> ds.state <- 0) rt.deps;
  rt.parked <- [];
  rt.triggered <- Literal.Set.empty;
  Symbol_tbl.reset rt.decided_set;
  let ckpt, suffix = Wf_store.Journal.recover rt.journal in
  (match ckpt with
  | Some s ->
      List.iter2 (fun ds st -> ds.state <- st) rt.deps s.cs_states;
      rt.parked <- s.cs_parked;
      rt.triggered <- s.cs_triggered;
      List.iter (fun sym -> Symbol_tbl.replace rt.decided_set sym ()) s.cs_decided
  | None -> ());
  List.iter (fun input -> apply_center rt input) suffix;
  rt.replaying <- false;
  Wf_obs.Metrics.bump rt.m.recoveries;
  Wf_obs.Metrics.bump_by rt.m.replayed (List.length suffix)

let rec schedule_agent rt ((agent, site) as owner) =
  match Agent.want agent with
  | None -> ()
  | Some (sym, attr) ->
      Agent.begin_attempt agent sym;
      (* The congested resource is the center, so the admission verdict
         keys on the central site's depth, while the shed streak and
         trace record stay with the attempting site. *)
      Ground.arrive rt.cfg.arrival ~think_time:rt.cfg.think_time rt.net
        rt.chan ~site ~depth_site:central_site sym (fun () ->
          Wf_obs.Metrics.bump rt.m.attempts;
          let m =
            if attr.Attribute.controllable then
              Attempt (Literal.pos sym, Agent.would_make_unreachable agent sym)
            else Occurred (Literal.pos sym)
          in
          Channel.send rt.chan ~src:site ~dst:central_site m;
          if not attr.Attribute.controllable then begin
            (* Uncontrollable events take effect at the task at once. *)
            let complements = Agent.on_accepted agent sym in
            List.iter
              (fun c ->
                Channel.send rt.chan ~src:site ~dst:central_site (Occurred c))
              complements;
            schedule_agent rt owner
          end)

let agent_handle rt ((agent, site) as owner) m =
  match m with
  | Accepted lit ->
      let complements = Agent.on_accepted agent (Literal.symbol lit) in
      List.iter
        (fun c -> Channel.send rt.chan ~src:site ~dst:central_site (Occurred c))
        complements;
      schedule_agent rt owner
  | Rejected lit ->
      Agent.on_rejected agent (Literal.symbol lit);
      schedule_agent rt owner
  | Trigger lit -> (
      match Agent.trigger agent (Literal.symbol lit) with
      | None -> Wf_obs.Metrics.bump rt.m.trigger_faults
      | Some complements ->
          Channel.send rt.chan ~src:site ~dst:central_site (Occurred lit);
          List.iter
            (fun c -> Channel.send rt.chan ~src:site ~dst:central_site (Occurred c))
            complements;
          schedule_agent rt owner)
  | Attempt _ | Occurred _ -> ()

(* Closing round: complements of events that can no longer occur, for
   every finished agent (its occurred mask read once, before the scan
   fires anything), unless the center holds a parked attempt on the
   symbol. *)
let close_round rt =
  let progress = ref false in
  Array.iter
    (fun r ->
      let agent, _ = rt.agents.(r) in
      if Agent.finished agent then begin
        let occurred = Agent.occurred_mask agent in
        Array.iteri
          (fun q (c, _) ->
            let sym = Literal.symbol c in
            if
              occurred land (1 lsl q) = 0
              && (not (decided rt sym))
              && not
                   (List.exists
                      (fun (l, _) -> Symbol.equal (Literal.symbol l) sym)
                      rt.parked)
            then begin
              deliver_center rt (C_occurred c);
              progress := true
            end)
          (Run_plan.tasks rt.plan).(r).closes
      end)
    (Run_plan.task_order rt.plan);
  !progress

let run ?(config = Event_sched.default_config) wf =
  let plan =
    match Run_plan.of_workflow wf with
    | Ok plan -> plan
    | Error msg -> invalid_arg ("Central_sched.run: " ^ msg)
  in
  let deps = Workflow_def.dependencies wf in
  let net, chan = Event_sched.network config wf in
  (* The center's medium seeds its faults from the run seed directly:
     there is one medium, not a stream of per-actor ones. *)
  let journal =
    Event_sched.journal config net
      (Wf_store.Log.binio_codec input_codec snapshot_codec)
      ~seed:(fun () -> Int64.logxor config.seed 0x53544F52L)
      ~site:central_site ~actor:"center"
  in
  let agents =
    Array.map2
      (fun (task : Workflow_def.task) (pt : Run_plan.task) ->
        (Agent.instantiate pt.agent ~script:task.script, task.site))
      (Array.of_list wf.Workflow_def.tasks)
      (Run_plan.tasks plan)
  in
  let rt =
    {
      wf;
      m = meters (Wf_sim.Netsim.stats net);
      cfg = config;
      plan;
      net;
      chan;
      deps =
        List.map
          (fun d ->
            {
              dep = d;
              lits = Expr.literals d;
              automaton = Automaton.build d;
              state = 0;
              feas = Hashtbl.create 64;
            })
          deps;
      journal;
      agents;
      decided_set = Symbol_tbl.create 64;
      replaying = false;
      parked = [];
      triggered = Literal.Set.empty;
      seqno = 0;
      occurrences = [];
      rejected = [];
    }
  in
  (* Message dispatch: requests are handled by the center; replies are
     routed to the owning agent by the literal they carry. *)
  for site = 0 to Workflow_def.num_sites wf - 1 do
    Channel.on_receive chan site (fun _src m ->
        match m with
        | Attempt (lit, entailed) ->
            if site = central_site then
              deliver_center rt (C_attempt (lit, entailed))
        | Occurred lit ->
            if site = central_site then deliver_center rt (C_occurred lit)
        | Accepted lit | Rejected lit | Trigger lit ->
            Option.iter (fun owner -> agent_handle rt owner m) (owner rt lit))
  done;
  (* Crash recovery of the center: the channel's restart hook (created
     first) has already bumped the epoch; rebuild the volatile center
     state from the journal.  Agents model durable transactional tasks
     and keep their state; their lost deliveries are retransmitted by
     the channel. *)
  Wf_sim.Netsim.on_restart net (fun site ->
      if site = central_site then recover_center rt);
  Array.iter (fun r -> schedule_agent rt agents.(r)) (Run_plan.task_order plan);
  let settle () = Wf_sim.Netsim.run ~max_steps:config.max_steps net in
  settle ();
  let symbols =
    Symbol.Set.elements
      (List.fold_left
         (fun acc ds -> Symbol.Set.union acc (Expr.symbols ds.dep))
         Symbol.Set.empty rt.deps)
  in
  Ground.closing ~settle
    ~complements:(fun () -> close_round rt)
    ~reject_lowest:(fun () ->
      match
        List.sort (fun (l1, _) (l2, _) -> Literal.compare l1 l2) rt.parked
      with
      | [] -> false
      | (lit, _) :: _ ->
          deliver_center rt (C_reject lit);
          true)
    ~negate_lowest:(fun () ->
      match List.find_opt (fun sym -> not (decided rt sym)) symbols with
      | None -> false
      | Some sym ->
          deliver_center rt (C_occurred (Literal.neg sym));
          true);
  Event_sched.result config net ~deps ~occurrences:rt.occurrences
    ~rejected:rt.rejected

module For_testing = struct
  let input_codec = input_codec
  let snapshot_codec = snapshot_codec

  let decided_checkpoint syms =
    let tbl = Symbol_tbl.create 1 in
    List.iter (fun sym -> Symbol_tbl.replace tbl sym ()) syms;
    B.encode snapshot_codec
      {
        cs_states = [];
        cs_parked = [];
        cs_triggered = Literal.Set.empty;
        cs_decided = decided_list tbl;
      }
end
