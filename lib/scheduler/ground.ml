open Wf_core
open Wf_tasks

type occurrence = { lit : Literal.t; seqno : int; time : float }

type jstate = {
  j : (Actor.input, Actor.snapshot) Wf_store.Journal.t;
  mutable depth : int;
}

type 'd hooks = {
  send :
    'd t -> priority:bool -> src:Symbol.t -> dst:Symbol.t -> Messages.t -> unit;
  kick : 'd t -> Agent.t -> unit;
  now : 'd t -> float;
  on_fire : 'd t -> occurrence -> unit;
  emit_assim : 'd t -> Symbol.t -> (Wf_obs.Trace.outcome -> int -> unit) option;
  settle : 'd t -> unit;
  iter_agents : 'd t -> (Agent.t -> unit) -> unit;
}

and 'd t = {
  plan : Run_plan.t;
  hooks : 'd hooks;
  driver : 'd;
  guard_overrides : (Literal.t * Guard.t) list;
  stats : Wf_obs.Metrics.t;
  meters : Actor.meters;
  occurrences_counter : Wf_obs.Metrics.counter;
  attempts_counter : Wf_obs.Metrics.counter;
  replay_ctx : Actor.ctx;
  actors : Actor.t Symbol_tbl.t;
  ctxs : Actor.ctx Symbol_tbl.t;
  journals : jstate Symbol_tbl.t;
  agents : (string, Agent.t) Hashtbl.t;
  owners : Agent.t Symbol_tbl.t;
  msg_counters : Wf_obs.Metrics.counter array;
  pending_trigger_complements : Literal.t list Symbol_tbl.t;
  mutable decided : Symbol.Set.t;
  mutable seqno : int;
  mutable occurrences : occurrence list;
  mutable rejected : Literal.t list;
}

let fresh_actor t sym =
  let a = Run_plan.actor t.plan sym in
  let guard lit g =
    match List.find_opt (fun (l, _) -> Literal.equal l lit) t.guard_overrides with
    | Some (_, g') -> g'
    | None -> g
  in
  Actor.create ~sym ~site:a.site
    ~guard_pos:(guard (Literal.pos sym) a.guard_pos)
    ~guard_neg:(guard (Literal.neg sym) a.guard_neg)
    ~attr_pos:a.attr ~attr_neg:Attribute.uncontrollable
    ~demand_automata:a.demand_automata ()

let create ?(guard_overrides = []) ~stats ~journal ~hooks ~driver
    (wf : Workflow_def.t) plan =
  let t =
    {
      plan;
      hooks;
      driver;
      guard_overrides;
      stats;
      meters = Actor.meters stats;
      occurrences_counter = Wf_obs.Metrics.counter stats "occurrences";
      attempts_counter = Wf_obs.Metrics.counter stats "attempts";
      replay_ctx = Actor.muted_ctx (Wf_obs.Metrics.create ());
      actors = Symbol_tbl.create 64;
      ctxs = Symbol_tbl.create 64;
      journals = Symbol_tbl.create 64;
      agents = Hashtbl.create 16;
      owners = Symbol_tbl.create 64;
      msg_counters =
        Array.map
          (fun l -> Wf_obs.Metrics.counter stats ("msg_" ^ l))
          Messages.labels;
      pending_trigger_complements = Symbol_tbl.create 8;
      decided = Symbol.Set.empty;
      seqno = 0;
      occurrences = [];
      rejected = [];
    }
  in
  List.iter2
    (fun (task : Workflow_def.task) spec ->
      Hashtbl.replace t.agents task.instance
        (Agent.instantiate spec ~script:task.script))
    wf.tasks (Run_plan.agents plan);
  List.iter
    (fun sym ->
      Symbol_tbl.replace t.actors sym (fresh_actor t sym);
      Symbol_tbl.replace t.journals sym (journal (Run_plan.actor plan sym));
      Option.iter
        (fun instance ->
          Symbol_tbl.replace t.owners sym (Hashtbl.find t.agents instance))
        (Run_plan.owner plan sym))
    (Run_plan.symbols plan);
  t

let decided t sym = Symbol.Set.mem sym t.decided

let actor_of t sym =
  match Symbol_tbl.find_opt t.actors sym with
  | Some a -> a
  | None -> Fmt.invalid_arg "no actor for %a" Symbol.pp sym

let agent_of t sym = Symbol_tbl.find_opt t.owners sym

let send ?(priority = false) t ~src ~dst msg =
  t.hooks.send t ~priority ~src ~dst msg;
  Wf_obs.Metrics.bump t.msg_counters.(Messages.tag msg)

(* Per-actor context, allocated once per symbol.  The closures capture
   only the symbol, never the actor record, so recovery can swap in a
   fresh actor without invalidating the context. *)
let rec ctx_for t sym : Actor.ctx =
  match Symbol_tbl.find_opt t.ctxs sym with
  | Some ctx -> ctx
  | None ->
      let ctx =
        {
          Actor.send = (fun dst msg -> send t ~src:sym ~dst msg);
          fire = (fun lit -> fire t lit);
          reject = (fun lit -> reject t lit);
          trigger_task = (fun lit -> trigger_task t lit);
          meters = t.meters;
          emit_assim = t.hooks.emit_assim t sym;
        }
      in
      Symbol_tbl.add t.ctxs sym ctx;
      ctx

(* The journaled entry point: append the input (write-ahead), apply it,
   and checkpoint when due — but only at depth 0, because an actor's own
   fire feeds back as a nested delivery of its occurrence, and a
   checkpoint taken inside the outer apply would freeze a half-applied
   state. *)
and deliver t actor input =
  let js = Symbol_tbl.find t.journals (Actor.symbol actor) in
  Wf_store.Journal.append js.j input;
  (* Inputs the actor cannot re-derive after a crash must be durable
     before their effects become externally visible: the channel has
     already acked an [I_message] (it will never redeliver it) and an
     [I_attempt] advanced the agent, which lives outside the journal.
     [I_occurred] entries stay unsynced — a salvage that rolls one back
     leaves the actor undecided, and the recovery handshake plus the
     global decided-set re-establish the fate — so torn-tail and
     lost-tail faults keep a real surface to bite on.  Without media
     under the journal a sync is a no-op. *)
  (match input with
  | Actor.I_message _ | Actor.I_attempt _ -> Wf_store.Journal.sync js.j
  | Actor.I_occurred _ | Actor.I_close -> ());
  js.depth <- js.depth + 1;
  Fun.protect
    ~finally:(fun () -> js.depth <- js.depth - 1)
    (fun () -> Actor.apply (ctx_for t (Actor.symbol actor)) actor input);
  if js.depth = 0 && Wf_store.Journal.wants_checkpoint js.j then
    Wf_store.Journal.checkpoint js.j (Actor.snapshot actor)

and fire t lit =
  let sym = Literal.symbol lit in
  if not (decided t sym) then begin
    t.seqno <- t.seqno + 1;
    let seqno = t.seqno in
    let occurrence = { lit; seqno; time = t.hooks.now t } in
    t.occurrences <- occurrence :: t.occurrences;
    t.decided <- Symbol.Set.add sym t.decided;
    t.hooks.on_fire t occurrence;
    Wf_obs.Metrics.bump t.occurrences_counter;
    (* Own actor learns first (it hosts the event). *)
    deliver t (actor_of t sym) (Actor.I_occurred { lit; seqno });
    (* The owning agent advances; triggered transitions already advanced
       the agent, so use the stashed complements instead. *)
    let complements =
      match Symbol_tbl.find_opt t.pending_trigger_complements sym with
      | Some cs ->
          Symbol_tbl.remove t.pending_trigger_complements sym;
          cs
      | None -> (
          if not (Literal.is_pos lit) then []
          else
            match agent_of t sym with
            | None -> []
            | Some agent ->
                let cs = Agent.on_accepted agent sym in
                t.hooks.kick t agent;
                cs)
    in
    (* Announce to every subscriber actor. *)
    Symbol.Set.iter
      (fun watcher ->
        if not (Symbol.equal watcher sym) then
          send t ~src:sym ~dst:watcher (Messages.Announce { lit; seqno }))
      (Run_plan.subscribers t.plan sym);
    (* Newly impossible events: their complements occur. *)
    List.iter (fire t) complements
  end

and reject t lit =
  t.rejected <- lit :: t.rejected;
  Wf_obs.Metrics.incr t.stats "rejections";
  let sym = Literal.symbol lit in
  match agent_of t sym with
  | None -> ()
  | Some agent ->
      Agent.on_rejected agent sym;
      t.hooks.kick t agent

and trigger_task t lit =
  let sym = Literal.symbol lit in
  match agent_of t sym with
  | None -> false
  | Some agent -> (
      match Agent.trigger agent sym with
      | None -> false
      | Some complements ->
          Symbol_tbl.replace t.pending_trigger_complements sym complements;
          t.hooks.kick t agent;
          true)

let attempt t agent sym (attr : Attribute.t) =
  Wf_obs.Metrics.bump t.attempts_counter;
  if attr.controllable then begin
    (* Vet the complements the transition entails together with the
       event's own guard: committing must be allowed to preclude
       aborting, etc. *)
    let entailed =
      Run_plan.entailed_guard t.plan (Agent.would_make_unreachable agent sym)
    in
    deliver t (actor_of t sym) (Actor.I_attempt { pol = Literal.Pos; entailed });
    false
  end
  else begin
    (* Uncontrollable: announced, not requested. *)
    let g = Run_plan.guard t.plan (Literal.pos sym) in
    let know = Actor.knowledge (actor_of t sym) in
    let status =
      match Gtable.lookup g with
      | Some tbl ->
          Gtable.view_status tbl (Gtable.view tbl ~reserved:Symbol.Set.empty know)
      | None -> Gtable.symbolic_status know g
    in
    fire t (Literal.pos sym);
    status = Knowledge.False
  end

(* {2 Recovery} *)

let replay t sym (ckpt, suffix) =
  let fresh = fresh_actor t sym in
  Option.iter (Actor.restore fresh) ckpt;
  List.iter (Actor.apply t.replay_ctx fresh) suffix;
  fresh

let recover t sym =
  let ((_, suffix) as content) =
    Wf_store.Journal.recover (Symbol_tbl.find t.journals sym).j
  in
  Symbol_tbl.replace t.actors sym (replay t sym content);
  Wf_obs.Metrics.incr t.stats "actor_recoveries";
  Wf_obs.Metrics.add t.stats "replayed_entries" (List.length suffix)

let hosted t site =
  List.filter
    (fun sym -> Actor.site (actor_of t sym) = site)
    (Run_plan.symbols t.plan)

let handshake t ~epoch hosted =
  List.iter
    (fun sym ->
      let actor = actor_of t sym in
      if Actor.decided actor = None then
        Symbol.Set.iter
          (fun peer ->
            if
              Symbol_tbl.mem t.actors peer
              && not (Knowledge.decided (Actor.knowledge actor) peer)
            then
              send ~priority:true t ~src:sym ~dst:peer
                (Messages.Recovered { sym; epoch }))
          (Actor.watched_symbols actor))
    hosted

(* {2 Closing} *)

let close_round t =
  (* Emit complements of events that can no longer occur. *)
  let progress = ref false in
  t.hooks.iter_agents t (fun agent ->
      if Agent.finished agent then
        List.iter
          (fun c ->
            let sym = Literal.symbol c in
            if
              Symbol_tbl.mem t.actors sym
              && (not (decided t sym))
              && Actor.parked_count (actor_of t sym) = 0
            then begin
              fire t c;
              progress := true
            end)
          (Agent.undecided_complements agent));
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

let close t =
  let symbols = Run_plan.symbols t.plan in
  let lowest p f =
    match List.find_opt p symbols with
    | None -> false
    | Some sym ->
        f sym;
        true
  in
  closing
    ~settle:(fun () -> t.hooks.settle t)
    ~complements:(fun () -> close_round t)
    ~reject_lowest:(fun () ->
      lowest
        (fun sym -> Actor.parked_count (actor_of t sym) > 0)
        (fun sym -> deliver t (actor_of t sym) Actor.I_close))
    ~negate_lowest:(fun () ->
      lowest
        (fun sym -> not (decided t sym))
        (fun sym -> fire t (Literal.neg sym)))
