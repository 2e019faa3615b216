open Wf_core
open Wf_tasks

type occurrence = { lit : Literal.t; seqno : int; time : float }

type jstate = {
  j : (Actor.input, Actor.snapshot) Wf_store.Journal.t;
  mutable depth : int;
}

type slot = {
  index : int;
  sym : Symbol.t;
  site : int;
  plan_actor : Run_plan.actor;
  mutable actor : Actor.t;
  mutable ctx : Actor.ctx;
  journal : jstate;
  task : task option;
  vets : bool;
  mutable decided : bool;
  mutable pending_complements : Literal.t list option;
  mutable parked : int; (* [Actor.parked_count actor], kept by [deliver] *)
}

and task = { rank : int; agent : Agent.t; closes : (Literal.t * int) array }

type payload = int * int * Messages.t

type t = {
  plan : Run_plan.t;
  net : payload Channel.wire Wf_sim.Netsim.t;
  chan : payload Channel.t;
  arrival : Flow.arrival;
  think_time : float;
  max_steps : int;
  on_event : occurrence -> unit;
  guard_overrides : (Literal.t * Guard.t) list;
  stats : Wf_obs.Metrics.t;
  meters : Actor.meters;
  occurrences_counter : Wf_obs.Metrics.counter;
  attempts_counter : Wf_obs.Metrics.counter;
  rejections_counter : Wf_obs.Metrics.counter;
  violations_counter : Wf_obs.Metrics.counter;
  recoveries_counter : Wf_obs.Metrics.counter;
  replayed_counter : Wf_obs.Metrics.counter;
  replay_ctx : Actor.ctx;
  slots : slot array;
  tasks : task array;
  task_order : int array;
  msg_counters : Wf_obs.Metrics.counter array;
  mutable seqno : int;
  mutable occurrences : occurrence list;
  mutable rejected : Literal.t list;
  mutable parked_slots : int; (* slots whose actor holds a parked attempt *)
}

let override overrides lit =
  List.find_map
    (fun (l, g) -> if Literal.equal l lit then Some g else None)
    overrides

(* The plan's guard cells, unless an override replaces a guard: then a
   cell of its own, looked up like any guard. *)
let fresh_actor overrides (a : Run_plan.actor) =
  let guard lit cell =
    match override overrides lit with
    | Some g -> Gtable.cell g
    | None -> cell
  in
  Actor.create ~sym:a.sym ~site:a.site ~route:a.route
    ~guard_pos:(guard a.pos a.guard_pos)
    ~guard_neg:(guard a.neg a.guard_neg)
    ~attr_pos:a.attr ~attr_neg:Attribute.uncontrollable
    ~demand_automata:a.demand_automata ()

let slot_of t sym =
  match Run_plan.index t.plan sym with
  | Some i -> t.slots.(i)
  | None -> Fmt.invalid_arg "no actor for %a" Symbol.pp sym

let send ?(priority = false) t ~src ~dst msg =
  Channel.send ~priority t.chan ~src:src.site ~dst:dst.site
    (src.index, dst.index, msg);
  Wf_obs.Metrics.bump t.msg_counters.(Messages.tag msg)

let arrive arrival ~think_time net chan ~site ?depth_site ?label sym attempt =
  let delay =
    Flow.arrival_delay arrival ~rng:(Wf_sim.Netsim.rng net)
      ~now:(Wf_sim.Netsim.now net) ~mean:think_time
  in
  (* Admission gate: with flow control on, an attempt arriving while the
     gating site is over the shed watermark is refused with Busy and
     retried after the verdict's seeded backoff — load sheds at the
     boundary instead of growing queues. *)
  let rec admitted_thunk first () =
    match Channel.flow chan with
    | None -> attempt ()
    | Some fl -> (
        let depth =
          Channel.depth chan ~site:(Option.value depth_site ~default:site)
        in
        match Flow.admit fl ~site ~actor:sym ~depth ~first () with
        | Flow.Admitted -> attempt ()
        | Flow.Busy { retry_after } ->
            Wf_sim.Netsim.schedule ?label net ~delay:retry_after
              (admitted_thunk first))
  in
  Wf_sim.Netsim.schedule ?label net ~delay (fun () ->
      admitted_thunk (Wf_sim.Netsim.now net) ())

(* An event of the task: agents name their events by the plan's own
   symbols, so the slot of a significant event is found by address
   among the task's [closes]; any other symbol by the plan's index. *)
let task_slot t task sym =
  let closes = task.closes in
  let n = Array.length closes in
  let q = ref 0 in
  while
    !q < n
    &&
    let i = snd closes.(!q) in
    not (i >= 0 && t.slots.(i).sym == sym)
  do
    incr q
  done;
  if !q < n then t.slots.(snd closes.(!q)) else slot_of t sym

(* The actor's own events fire through its slot; anything else (an
   agent's complements) resolves its symbol first. *)
let slot_for t slot lit =
  let sym = Literal.symbol lit in
  if Symbol.equal sym slot.sym then slot
  else
    match slot.task with
    | Some task -> task_slot t task sym
    | None -> slot_of t sym

(* Only [Actor.apply] and recovery change an actor's parked list, and
   every apply runs inside [deliver] on the actor's slot, so recounting
   there and in [recover] keeps [slot.parked] and [t.parked_slots]
   exact. *)
let recount_parked t slot =
  let n = Actor.parked_count slot.actor in
  if (n > 0) <> (slot.parked > 0) then
    t.parked_slots <- t.parked_slots + (if n > 0 then 1 else -1);
  slot.parked <- n

(* The journaled entry point: append the input (write-ahead), apply it,
   and checkpoint when due — but only at depth 0, because an actor's own
   fire feeds back as a nested delivery of its occurrence, and a
   checkpoint taken inside the outer apply would freeze a half-applied
   state. *)
let deliver ?vetted t slot input =
  let js = slot.journal and actor = slot.actor in
  Wf_store.Journal.append js.j input;
  (* Inputs the actor cannot re-derive after a crash must be durable
     before their effects become externally visible: the channel has
     already acked an [I_message] (it will never redeliver it) and an
     [I_attempt] advanced the agent, which lives outside the journal.
     [I_occurred] entries stay unsynced — a salvage that rolls one back
     leaves the actor undecided, and the recovery handshake plus the
     global decided flags re-establish the fate — so torn-tail and
     lost-tail faults keep a real surface to bite on.  Without media
     under the journal a sync is a no-op. *)
  (match input with
  | Actor.I_message _ | Actor.I_attempt _ -> Wf_store.Journal.sync js.j
  | Actor.I_occurred _ | Actor.I_close -> ());
  js.depth <- js.depth + 1;
  (match Actor.apply ?vetted slot.ctx actor input with
  | () -> js.depth <- js.depth - 1
  | exception e ->
      js.depth <- js.depth - 1;
      recount_parked t slot;
      raise e);
  recount_parked t slot;
  if js.depth = 0 && Wf_store.Journal.wants_checkpoint js.j then
    Wf_store.Journal.checkpoint js.j (Actor.snapshot actor)

let rec fire t slot lit =
  if not slot.decided then begin
    t.seqno <- t.seqno + 1;
    let seqno = t.seqno in
    let occurrence = { lit; seqno; time = Wf_sim.Netsim.now t.net } in
    t.occurrences <- occurrence :: t.occurrences;
    slot.decided <- true;
    t.on_event occurrence;
    Wf_obs.Metrics.bump t.occurrences_counter;
    (* Own actor learns first (it hosts the event). *)
    deliver t slot (Actor.I_occurred { lit; seqno });
    (* The owning agent advances; triggered transitions already advanced
       the agent, so use the stashed complements instead. *)
    let complements =
      match slot.pending_complements with
      | Some cs ->
          slot.pending_complements <- None;
          cs
      | None -> (
          if not (Literal.is_pos lit) then []
          else
            match slot.task with
            | None -> []
            | Some task ->
                let cs = Agent.on_accepted task.agent slot.sym in
                kick t task;
                cs)
    in
    (* Announce to every subscriber actor, in symbol order. *)
    Array.iter
      (fun w ->
        send t ~src:slot ~dst:t.slots.(w) (Messages.Announce { lit; seqno }))
      slot.plan_actor.subscribers;
    (* Newly impossible events: their complements occur. *)
    List.iter (fun c -> fire t (slot_for t slot c) c) complements
  end

and reject t slot lit =
  t.rejected <- lit :: t.rejected;
  Wf_obs.Metrics.bump t.rejections_counter;
  match slot.task with
  | None -> ()
  | Some task ->
      Agent.on_rejected task.agent slot.sym;
      kick t task

(* The agent may want to attempt next: it commits to the event now and
   the attempt arrives after the think time, labeled with the event's
   slot for a chooser. *)
and kick t task =
  match Agent.want task.agent with
  | None -> ()
  | Some (sym, attr) ->
      Agent.begin_attempt task.agent sym;
      let slot = task_slot t task sym in
      arrive t.arrival ~think_time:t.think_time t.net t.chan ~site:slot.site
        ~label:slot.index sym (fun () ->
          if attempt t task slot attr then
            Wf_obs.Metrics.bump t.violations_counter)

(* An uncontrollable event is announced, not requested: [true] iff its
   guard said [False]. *)
and attempt t task slot (attr : Attribute.t) =
  Wf_obs.Metrics.bump t.attempts_counter;
  if attr.controllable then begin
    (* Vet the complements the transition entails together with the
       event's own guard: committing must be allowed to preclude
       aborting, etc. *)
    let a =
      Run_plan.attempt t.plan slot.plan_actor.pos ~task:task.rank
        (Agent.unreachable_mask task.agent slot.sym)
    in
    let vetted = if slot.vets then Some a.vetted else None in
    deliver ?vetted t slot
      (Actor.I_attempt { pol = Literal.Pos; entailed = a.entailed });
    false
  end
  else begin
    let cell = slot.plan_actor.guard_pos in
    let know = Actor.knowledge slot.actor in
    let status =
      match Gtable.cell_table cell with
      | Some tbl ->
          Gtable.view_status tbl (Gtable.view tbl ~reserved:Symbol.Set.empty know)
      | None -> Gtable.symbolic_status know (Gtable.cell_guard cell)
    in
    fire t slot slot.plan_actor.pos;
    status = Knowledge.False
  end

and trigger_task t slot =
  match slot.task with
  | None -> false
  | Some task -> (
      match Agent.trigger task.agent slot.sym with
      | None -> false
      | Some complements ->
          slot.pending_complements <- Some complements;
          kick t task;
          true)

(* Per-slot context, built once per run.  The closures capture the
   slot, never the actor record, so recovery can swap in a fresh actor
   without invalidating the context. *)
let ctx_for t slot : Actor.ctx =
  {
    Actor.send = (fun dst msg -> send t ~src:slot ~dst:t.slots.(dst) msg);
    fire = (fun lit -> fire t (slot_for t slot lit) lit);
    reject = (fun lit -> reject t (slot_for t slot lit) lit);
    trigger_task = (fun lit -> trigger_task t (slot_for t slot lit));
    meters = t.meters;
    emit_assim =
      Option.map
        (fun sink ->
          let site = slot.site and name = Symbol.name slot.sym in
          fun outcome guard ->
            Wf_obs.Trace.emit sink
              (Wf_obs.Trace.make ~time:(Wf_sim.Netsim.now t.net) ~site
                 ~actor:name
                 (Wf_obs.Trace.Assim { outcome; guard })))
        (Wf_sim.Netsim.tracer t.net);
  }

(* The counters' keys, numbered once per process. *)
let k_occurrences = Wf_obs.Metrics.key "occurrences"
let k_attempts = Wf_obs.Metrics.key "attempts"
let k_rejections = Wf_obs.Metrics.key "rejections"
let k_violations = Wf_obs.Metrics.key "uncontrollable_violations"
let k_recoveries = Wf_obs.Metrics.key "actor_recoveries"
let k_replayed = Wf_obs.Metrics.key "replayed_entries"
let k_msgs = Array.map (fun l -> Wf_obs.Metrics.key ("msg_" ^ l)) Messages.labels

let create ?(guard_overrides = []) ~net ~chan ~journal ~arrival ~think_time
    ~max_steps ~on_event (wf : Workflow_def.t) plan =
  let stats = Wf_sim.Netsim.stats net in
  let plan_tasks = Run_plan.tasks plan in
  let tasks =
    Array.of_list
      (List.mapi
         (fun rank (task : Workflow_def.task) ->
           let pt = plan_tasks.(rank) in
           {
             rank;
             agent = Agent.instantiate pt.Run_plan.agent ~script:task.script;
             closes = pt.closes;
           })
         wf.tasks)
  in
  (* Each slot's context closes over the run, so the slots start on the
     muted replay context and get their own once the run exists. *)
  let replay_ctx = Actor.muted_ctx (Wf_obs.Metrics.create ()) in
  let slots =
    Array.map
      (fun (a : Run_plan.actor) ->
        {
          index = a.index;
          sym = a.sym;
          site = a.site;
          plan_actor = a;
          actor = fresh_actor guard_overrides a;
          ctx = replay_ctx;
          journal = journal a;
          task = Option.map (fun r -> tasks.(r)) a.task;
          vets = override guard_overrides a.pos = None;
          decided = false;
          pending_complements = None;
          parked = 0;
        })
      (Run_plan.actors plan)
  in
  let counter = Wf_obs.Metrics.counter stats in
  let t =
    {
      plan;
      net;
      chan;
      arrival;
      think_time;
      max_steps;
      on_event;
      guard_overrides;
      stats;
      meters = Actor.meters stats;
      occurrences_counter = counter k_occurrences;
      attempts_counter = counter k_attempts;
      rejections_counter = counter k_rejections;
      violations_counter = counter k_violations;
      recoveries_counter = counter k_recoveries;
      replayed_counter = counter k_replayed;
      replay_ctx;
      slots;
      tasks;
      task_order = Run_plan.task_order plan;
      msg_counters = Array.map counter k_msgs;
      seqno = 0;
      occurrences = [];
      rejected = [];
      parked_slots = 0;
    }
  in
  Array.iter (fun slot -> slot.ctx <- ctx_for t slot) slots;
  t

(* {2 Recovery} *)

let replay t slot (ckpt, suffix) =
  let fresh = fresh_actor t.guard_overrides slot.plan_actor in
  Option.iter (Actor.restore fresh) ckpt;
  List.iter (Actor.apply t.replay_ctx fresh) suffix;
  fresh

let recover t slot =
  let ((_, suffix) as content) = Wf_store.Journal.recover slot.journal.j in
  slot.actor <- replay t slot content;
  recount_parked t slot;
  Wf_obs.Metrics.bump t.recoveries_counter;
  Wf_obs.Metrics.bump_by t.replayed_counter (List.length suffix)

let hosted t site =
  Array.fold_right
    (fun slot acc -> if slot.site = site then slot :: acc else acc)
    t.slots []

let handshake t ~epoch hosted =
  List.iter
    (fun slot ->
      let actor = slot.actor in
      if Actor.decided actor = None then
        Symbol.Set.iter
          (fun peer ->
            match Run_plan.index t.plan peer with
            | Some i when not (Knowledge.decided (Actor.knowledge actor) peer) ->
                send ~priority:true t ~src:slot ~dst:t.slots.(i)
                  (Messages.Recovered { sym = slot.sym; epoch })
            | _ -> ())
          (Actor.watched_symbols actor))
    hosted

(* {2 Closing} *)

(* Emit the complements of events that can no longer occur: each
   finished agent's significant events that have not occurred (its
   occurred mask read once, before the scan fires anything), unless
   the complement's actor holds a parked attempt. *)
let close_round t =
  let progress = ref false in
  Array.iter
    (fun r ->
      let task = t.tasks.(r) in
      if Agent.finished task.agent then begin
        let occurred = Agent.occurred_mask task.agent in
        Array.iteri
          (fun q (c, i) ->
            if occurred land (1 lsl q) = 0 && i >= 0 then begin
              let slot = t.slots.(i) in
              if (not slot.decided) && slot.parked = 0
              then begin
                fire t slot c;
                progress := true
              end
            end)
          task.closes
      end)
    t.task_order;
  !progress

(* The closing protocol, phase order and budgets, over the engine's own
   steps.  [complements] emits complements of events that can no longer
   occur; [reject_lowest] and [negate_lowest] act on the lowest parked
   attempt or undecided symbol.  Each returns whether it did anything. *)
let closing ~settle ~complements ~reject_lowest ~negate_lowest =
  let rec close_rounds budget =
    if budget > 0 && complements () then begin
      settle ();
      close_rounds (budget - 1)
    end
  in
  (* Reject whatever is still parked, one at a time, letting each
     rejection's consequences (agent fallbacks, announcements) propagate
     before the next: a rejected commit's fallback abort routinely
     unblocks other parked events. *)
  let rec reject_loop budget =
    if budget > 0 && reject_lowest () then begin
      settle ();
      close_rounds 16;
      reject_loop (budget - 1)
    end
  in
  (* Then decide leftover symbols negatively so the realized trace is
     maximal, again letting each round settle. *)
  let rec neg_loop budget =
    if budget > 0 && negate_lowest () then begin
      settle ();
      close_rounds 16;
      reject_loop 64;
      neg_loop (budget - 1)
    end
  in
  close_rounds 64;
  reject_loop 256;
  neg_loop 1024

let start t = Array.iter (fun r -> kick t t.tasks.(r)) t.task_order

let settle t = Wf_sim.Netsim.run ~max_steps:t.max_steps t.net

let close t =
  settle t;
  let undecided_from = ref 0 in
  closing
    ~settle:(fun () -> settle t)
    ~complements:(fun () -> close_round t)
    ~reject_lowest:(fun () ->
      t.parked_slots > 0
      &&
      match Array.find_opt (fun slot -> slot.parked > 0) t.slots with
      | None -> false
      | Some slot ->
          deliver t slot Actor.I_close;
          true)
    ~negate_lowest:(fun () ->
      (* A slot never becomes undecided again, so the search for the
         lowest undecided one resumes where the last one stopped. *)
      let n = Array.length t.slots in
      while !undecided_from < n && t.slots.(!undecided_from).decided do
        incr undecided_from
      done;
      !undecided_from < n
      &&
      let slot = t.slots.(!undecided_from) in
      fire t slot slot.plan_actor.neg;
      true)
