open Wf_core
open Wf_tasks

(* Every counter the actor bumps, resolved once per registry: a bump
   hashes no name. *)
type meters = {
  parked_evaluations : Wf_obs.Metrics.counter;
  promise_requests : Wf_obs.Metrics.counter;
  promises_granted : Wf_obs.Metrics.counter;
  reservations_granted : Wf_obs.Metrics.counter;
  triggers : Wf_obs.Metrics.counter;
  trigger_faults : Wf_obs.Metrics.counter;
  forced_violations : Wf_obs.Metrics.counter;
  sacrificed_attempts : Wf_obs.Metrics.counter;
  promises_refused : Wf_obs.Metrics.counter;
  promises_granted_conditional : Wf_obs.Metrics.counter;
  reservations_denied : Wf_obs.Metrics.counter;
  contradictory_announcements : Wf_obs.Metrics.counter;
  duplicate_announcements : Wf_obs.Metrics.counter;
  recovery_reannounces : Wf_obs.Metrics.counter;
  parked_rejected_at_close : Wf_obs.Metrics.counter;
}

let k_parked_evaluations = Wf_obs.Metrics.key "parked_evaluations"
let k_promise_requests = Wf_obs.Metrics.key "promise_requests"
let k_promises_granted = Wf_obs.Metrics.key "promises_granted"
let k_reservations_granted = Wf_obs.Metrics.key "reservations_granted"
let k_triggers = Wf_obs.Metrics.key "triggers"
let k_trigger_faults = Wf_obs.Metrics.key "trigger_faults"
let k_forced_violations = Wf_obs.Metrics.key "forced_violations"
let k_sacrificed_attempts = Wf_obs.Metrics.key "sacrificed_attempts"
let k_promises_refused = Wf_obs.Metrics.key "promises_refused"
let k_promises_granted_conditional = Wf_obs.Metrics.key "promises_granted_conditional"
let k_reservations_denied = Wf_obs.Metrics.key "reservations_denied"
let k_contradictory_announcements = Wf_obs.Metrics.key "contradictory_announcements"
let k_duplicate_announcements = Wf_obs.Metrics.key "duplicate_announcements"
let k_recovery_reannounces = Wf_obs.Metrics.key "recovery_reannounces"
let k_parked_rejected_at_close = Wf_obs.Metrics.key "parked_rejected_at_close"

let meters stats =
  let c = Wf_obs.Metrics.counter stats in
  {
    parked_evaluations = c k_parked_evaluations;
    promise_requests = c k_promise_requests;
    promises_granted = c k_promises_granted;
    reservations_granted = c k_reservations_granted;
    triggers = c k_triggers;
    trigger_faults = c k_trigger_faults;
    forced_violations = c k_forced_violations;
    sacrificed_attempts = c k_sacrificed_attempts;
    promises_refused = c k_promises_refused;
    promises_granted_conditional = c k_promises_granted_conditional;
    reservations_denied = c k_reservations_denied;
    contradictory_announcements = c k_contradictory_announcements;
    duplicate_announcements = c k_duplicate_announcements;
    recovery_reannounces = c k_recovery_reannounces;
    parked_rejected_at_close = c k_parked_rejected_at_close;
  }

type ctx = {
  send : int -> Messages.t -> unit;
  fire : Literal.t -> unit;
  reject : Literal.t -> unit;
  trigger_task : Literal.t -> bool;
  meters : meters;
  emit_assim : (Wf_obs.Trace.outcome -> int -> unit) option;
      (* trace hook for guard-assimilation outcomes; [None] (replay,
         tracing off) costs one branch per decision *)
}

type parked = {
  pol : Literal.polarity;
  via_trigger : bool;
  cell : Gtable.cell; (* the guard and its compiled table, if any *)
  watch : Symbol.Set.t; (* symbols whose news can move this attempt *)
  mutable evals : int;
      (* Unknown-status evaluations so far: 0 means the next Unknown is
         the initial parking, >0 means a re-evaluation (trace Reduced) *)
  mutable tview : (Gtable.t * Gtable.view) option;
      (* the table's view of the actor's knowledge and reservations,
         built on the first table decision and then stepped by every
         input that changes either (see [step_views]).  A derived cache
         — never snapshotted, fingerprinted, or compared; rebuilt after
         restore. *)
}

let park ~pol ~via_trigger cell =
  {
    pol;
    via_trigger;
    cell;
    watch = Gtable.cell_symbols cell;
    evals = 0;
    tview = None;
  }

let guard_of_parked p = Gtable.cell_guard p.cell

(* Trace hook: guard ids are only interned when a sink is listening. *)
let note_assim ctx outcome guard =
  match ctx.emit_assim with
  | None -> ()
  | Some f -> f outcome (Guard.uid guard)

type t = {
  sym : Symbol.t;
  site : int;
  route : Symbol.t -> int; (* the slot [send] takes, of a symbol's actor *)
  guard_pos : Gtable.cell;
  guard_neg : Gtable.cell;
  attr_pos : Attribute.t;
  attr_neg : Attribute.t;
  demand_automata : Automaton.t list;
  mutable knowledge : Knowledge.t;
  mutable reserved : Symbol.Set.t; (* reservations I hold *)
  mutable reserve_queue : Symbol.t list; (* to acquire, ascending *)
  mutable reserve_inflight : Symbol.t option;
  mutable reserve_backoff : Symbol.Set.t;
  mutable holder : Literal.t option; (* who holds MY symbol *)
  (* Denied reservation requesters, FIFO.  Two-list queue (arrival
     order is [waiters_front @ List.rev waiters_back]) so that enqueue
     is O(1) — a single append-to-tail list is O(n) per enqueue and
     O(n^2) under contention. *)
  mutable waiters_front : Literal.t list;
  mutable waiters_back : Literal.t list; (* newest first *)
  mutable parked : parked list;
  mutable decided_pol : Literal.polarity option;
  mutable promise_requested : Literal.Set.t;
  mutable deferred_grants : (Literal.polarity * Literal.t * Literal.t list) list;
  mutable trigger_engaged : bool;
}

let create ~sym ~site ~route ~guard_pos ~guard_neg ~attr_pos ~attr_neg
    ?(demand_automata = []) () =
  {
    sym;
    site;
    route;
    guard_pos;
    guard_neg;
    attr_pos;
    attr_neg;
    demand_automata;
    knowledge = Knowledge.empty;
    reserved = Symbol.Set.empty;
    reserve_queue = [];
    reserve_inflight = None;
    reserve_backoff = Symbol.Set.empty;
    holder = None;
    waiters_front = [];
    waiters_back = [];
    parked = [];
    decided_pol = None;
    promise_requested = Literal.Set.empty;
    deferred_grants = [];
    trigger_engaged = false;
  }

let waiters t = t.waiters_front @ List.rev t.waiters_back
let decided t = t.decided_pol
let parked_count t = List.length t.parked
let knowledge t = t.knowledge

let lit t pol : Literal.t = { Literal.sym = t.sym; pol }
let cell_of t = function Literal.Pos -> t.guard_pos | Literal.Neg -> t.guard_neg
let guard_of t pol = Gtable.cell_guard (cell_of t pol)
let attr_of t = function Literal.Pos -> t.attr_pos | Literal.Neg -> t.attr_neg

(* Decisions read the compiled table of the guard they evaluate: a
   decisive verdict (residual ⊤ or 0) answers at once — sound under
   reservations because it holds over all completions — and an [Open]
   state answers through the table's status memo.  Guards without a
   table evaluate symbolically.

   Where a decision reads its guard: the compiled table with its view
   of the actor's knowledge, or the symbolic guard. *)
type source = Table of Gtable.t * Gtable.view | Symbolic of Guard.t

let parked_source t (p : parked) =
  match p.tview with
  | Some (tbl, v) -> Table (tbl, v)
  | None -> (
      match Gtable.cell_table p.cell with
      | Some tbl ->
          let v = Gtable.view tbl ~reserved:t.reserved t.knowledge in
          p.tview <- Some (tbl, v);
          Table (tbl, v)
      | None -> Symbolic (guard_of_parked p))

(* Every parked view follows the actor's knowledge and reservations:
   each input that changes either steps it ({!Gtable.step_view}), after
   the actor's own fields took the new values. *)
let step_views t input =
  List.iter
    (fun p ->
      match p.tview with
      | None -> ()
      | Some (tbl, v) ->
          p.tview <-
            Some (tbl, Gtable.step_view tbl v ~reserved:t.reserved t.knowledge input))
    t.parked

let status_now t = function
  | Table (tbl, v) -> Gtable.view_status tbl v
  | Symbolic g -> Gtable.symbolic_status ~reserved:t.reserved t.knowledge g

(* The status after hypothetically recording [lits] as occurred (seqno
   [max_int]) or promised. *)
let status_after t ~occurred src lits =
  match src with
  | Table (tbl, v) ->
      if occurred then Gtable.status_if_occurred tbl v lits
      else Gtable.status_if_promised tbl v lits
  | Symbolic g ->
      let record k l =
        if occurred then Knowledge.occurred l ~seqno:max_int k
        else Knowledge.promised l k
      in
      Gtable.symbolic_status ~reserved:t.reserved
        (List.fold_left record t.knowledge lits)
        g

let release_all ctx t =
  let held = t.reserved in
  Symbol.Set.iter
    (fun sym ->
      ctx.send (t.route sym) (Messages.Release { sym; holder = lit t Literal.Pos });
      t.reserved <- Symbol.Set.remove sym t.reserved;
      step_views t (Gtable.Released sym))
    held;
  t.reserve_queue <- [];
  t.reserve_inflight <- None

let rec advance_reservations ctx t =
  match t.reserve_inflight with
  | Some _ -> ()
  | None -> (
      match t.reserve_queue with
      | [] -> ()
      | sym :: rest ->
          if Symbol.Set.mem sym t.reserved || Knowledge.decided t.knowledge sym
          then begin
            t.reserve_queue <- rest;
            advance_reservations ctx t
          end
          else begin
            t.reserve_inflight <- Some sym;
            ctx.send (t.route sym) (Messages.Reserve { sym; requester = lit t Literal.Pos })
          end)

(* Pursue the outstanding requirements of a parked attempt.

   Promises: a promise request is sent to event [x] when [x]'s actual
   occurrence would make our guard [True] — a granted promise makes the
   grantee fire at once (see [grant_or_defer]), so the request is
   productive and the implied offer credible.  This covers both the
   [◇x]-discharge case of Example 11 and first-occurrence cases like the
   compensation of Example 4.

   Reservations: [¬f]-style constraints are discharged by holding [f]
   undecided; reservations are acquired in ascending symbol order.

   What to pursue depends only on the guard and the knowledge, so a
   compiled table answers it from its pursuit memo ({!Gtable.pursuit});
   the filters below read the actor's own protocol state. *)
let pursue ctx t (p : parked) =
  let pol = p.pol in
  let pu =
    match parked_source t p with
    | Table (tbl, v) -> Gtable.pursuit tbl v
    | Symbolic g -> Gtable.symbolic_pursuit ~reserved:t.reserved t.knowledge g
  in
  let wanted_reserves =
    List.filter
      (fun sym ->
        (not (Symbol.Set.mem sym t.reserved))
        && not (Symbol.Set.mem sym t.reserve_backoff))
      pu.Gtable.reserves
  in
  if wanted_reserves <> [] then begin
    t.reserve_queue <-
      List.sort_uniq Symbol.compare (wanted_reserves @ t.reserve_queue);
    advance_reservations ctx t
  end;
  (* Held, wanted, queued or in flight. *)
  let reserve_target sym =
    Symbol.Set.mem sym t.reserved
    || List.exists (Symbol.equal sym) wanted_reserves
    || List.exists (Symbol.equal sym) t.reserve_queue
    || match t.reserve_inflight with Some s -> Symbol.equal s sym | None -> false
  in
  List.iter
    (fun (cand : Literal.t) ->
      let sym = cand.Literal.sym in
      (* Escalation order: while a reservation on the symbol is
         available or in progress, do not ask for its negative
         eventuality — a ¬-consensus is gentler than forcing the
         grantee to renounce its event (sacrifice). *)
      let premature = cand.Literal.pol = Literal.Neg && reserve_target sym in
      if
        (not (Symbol.equal sym t.sym))
        && (not premature)
        && not (Literal.Set.mem cand t.promise_requested)
      then begin
        t.promise_requested <- Literal.Set.add cand t.promise_requested;
        Wf_obs.Metrics.bump ctx.meters.promise_requests;
        ctx.send (t.route sym)
          (Messages.Promise_request
             { target = cand; requester = lit t pol; offers = [ lit t pol ] })
      end)
    pu.Gtable.enabling

let do_fire ctx t (p : parked) =
  let l = lit t p.pol in
  let ok =
    if p.via_trigger then begin
      Wf_obs.Metrics.bump ctx.meters.triggers;
      ctx.trigger_task l
    end
    else true
  in
  if ok then ctx.fire l
  else Wf_obs.Metrics.bump ctx.meters.trigger_faults;
  release_all ctx t

let rec try_fire ctx t (p : parked) =
  if not (List.memq p t.parked) then ()
  else
    match t.decided_pol with
    | Some pol when pol = p.pol ->
        t.parked <- List.filter (fun q -> q != p) t.parked
    | Some _ ->
        t.parked <- List.filter (fun q -> q != p) t.parked;
        if not p.via_trigger then ctx.reject (lit t p.pol)
    | None -> (
        let status = status_now t (parked_source t p) in
        (* While our symbol is reserved we defer firing — but a guard
           that has collapsed to 0 can never recover, so a rejectable
           attempt is rejected deterministically even while held
           (parking it "until release" could park it forever when the
           holder fired through us and will never release). *)
        if
          t.holder <> None
          && not
               (status = Knowledge.False
               && (attr_of t p.pol).Attribute.rejectable)
        then () (* wait for release *)
        else
          match status with
          | Knowledge.True ->
              t.parked <- List.filter (fun q -> q != p) t.parked;
              note_assim ctx Wf_obs.Trace.Enabled (guard_of_parked p);
              do_fire ctx t p
          | Knowledge.False ->
              t.parked <- List.filter (fun q -> q != p) t.parked;
              if (attr_of t p.pol).Attribute.rejectable then begin
                note_assim ctx Wf_obs.Trace.Rejected (guard_of_parked p);
                if not p.via_trigger then ctx.reject (lit t p.pol)
              end
              else begin
                Wf_obs.Metrics.bump ctx.meters.forced_violations;
                note_assim ctx Wf_obs.Trace.Forced (guard_of_parked p);
                do_fire ctx t p
              end
          | Knowledge.Unknown ->
              Wf_obs.Metrics.bump ctx.meters.parked_evaluations;
              note_assim ctx
                (if p.evals = 0 then Wf_obs.Trace.Parked
                 else Wf_obs.Trace.Reduced)
                (guard_of_parked p);
              p.evals <- p.evals + 1;
              pursue ctx t p)

and grant_or_defer ctx t (pol, requester, offers) =
  match t.decided_pol with
  | Some _ -> () (* the requester hears announcements *)
  | None ->
      let existing = List.find_opt (fun p -> p.pol = pol) t.parked in
      let triggerable = (attr_of t pol).Attribute.triggerable && pol = Literal.Pos in
      let defer () =
        t.deferred_grants <-
          (pol, requester, offers)
          :: List.filter
               (fun (q, r, _) -> not (q = pol && Literal.equal r requester))
               t.deferred_grants
      in
      let sacrifice () =
        (* A request for our complement while our own event is parked:
           someone can proceed only if we never occur (e.g. exclusion
           dependencies).  The lower-ordered requester wins: reject our
           parked attempt so its complement eventually flows. *)
        match List.find_opt (fun p -> p.pol <> pol && not p.via_trigger) t.parked with
        | Some p
          when pol = Literal.Neg
               && Symbol.compare (Literal.symbol requester) t.sym < 0
               && (attr_of t p.pol).Attribute.rejectable ->
            t.parked <- List.filter (fun q -> q != p) t.parked;
            Wf_obs.Metrics.bump ctx.meters.sacrificed_attempts;
            ctx.reject (lit t p.pol);
            true
        | _ -> false
      in
      if existing = None && not triggerable then begin
        if not (sacrifice ()) then defer ()
      end
      else begin
        let src =
          match existing with
          | Some p -> parked_source t p
          | None -> (
              match Gtable.cell_table (cell_of t pol) with
              | Some tbl ->
                  Table (tbl, Gtable.view tbl ~reserved:t.reserved t.knowledge)
              | None -> Symbolic (guard_of t pol))
        in
        match status_after t ~occurred:false src offers with
        | Knowledge.True -> (
            (* The offers alone enable us: promise and fire at once
               (the mutual-[◇] consensus of Example 11). *)
            List.iter
              (fun o ->
                t.knowledge <- Knowledge.promised o t.knowledge;
                step_views t (Gtable.Promised o))
              offers;
            Wf_obs.Metrics.bump ctx.meters.promises_granted;
            ctx.send (t.route (Literal.symbol requester))
              (Messages.Promise { lit = lit t pol; to_ = requester });
            match existing with
            | Some p -> try_fire ctx t p
            | None ->
                (* Triggerable and enabled: cause the event now. *)
                let p = park ~pol ~via_trigger:true (cell_of t pol) in
                t.parked <- p :: t.parked;
                try_fire ctx t p)
        | Knowledge.False -> Wf_obs.Metrics.bump ctx.meters.promises_refused
        | Knowledge.Unknown -> (
            (* Conditional promise ([14]): if the offered events actually
               occurring would enable us, promise now and fire when their
               announcements arrive — "the latter can proceed, generate a
               message, and thereby cause the first to discharge its
               promise". *)
            match status_after t ~occurred:true src offers with
            | Knowledge.True ->
                Wf_obs.Metrics.bump ctx.meters.promises_granted_conditional;
                ctx.send (t.route (Literal.symbol requester))
                  (Messages.Promise { lit = lit t pol; to_ = requester });
                if existing = None && triggerable then begin
                  (* Commit to eventually triggering it. *)
                  t.parked <-
                    park ~pol ~via_trigger:true (cell_of t pol) :: t.parked
                end
            | Knowledge.False | Knowledge.Unknown -> defer ())
      end

and check_trigger_demand ctx t =
  if
    (not t.trigger_engaged) && t.decided_pol = None
    && t.attr_pos.Attribute.triggerable
    && not (List.exists (fun p -> p.pol = Literal.Pos) t.parked)
  then begin
    let my_lit = lit t Literal.Pos in
    let demanded =
      List.exists
        (fun aut ->
          let occurred =
            List.filter_map
              (fun l ->
                match Knowledge.fate_of t.knowledge (Literal.symbol l) with
                | Some (Knowledge.Occurred (pol, n)) when pol = l.Literal.pol ->
                    Some (n, l)
                | _ -> None)
              (Automaton.alphabet aut)
          in
          let trace =
            List.map snd
              (List.sort_uniq
                 (fun (a, _) (b, _) -> Stdlib.compare a b)
                 occurred)
          in
          let state = Automaton.run aut trace in
          Literal.Set.mem my_lit (Automaton.required_literals aut state))
        t.demand_automata
    in
    if demanded then begin
      t.trigger_engaged <- true;
      let p = park ~pol:Literal.Pos ~via_trigger:true t.guard_pos in
      t.parked <- p :: t.parked;
      try_fire ctx t p
    end
  end

and re_evaluate ?touched ctx t =
  (* [touched] gates the parked scan: news about a symbol can only move
     attempts whose guard mentions it ([Knowledge.status] reads the
     knowledge at the guard's symbols only, and [pursue] only acts on
     them).  News about our own symbol decides every attempt, so it
     always rescans.  Deferred grants and trigger demand involve other
     parties' symbols and stay unconditional. *)
  (match touched with
  | Some sym when not (Symbol.equal sym t.sym) ->
      List.iter
        (fun p -> if Symbol.Set.mem sym p.watch then try_fire ctx t p)
        t.parked
  | _ -> List.iter (fun p -> try_fire ctx t p) t.parked);
  let grants = t.deferred_grants in
  t.deferred_grants <- [];
  List.iter (fun g -> grant_or_defer ctx t g) grants;
  check_trigger_demand ctx t

(* Decide a reservation request on our symbol.  Granting to a
   higher-ordered requester is safe when none of our parked attempts can
   fire before the requester's event occurs anyway (e.g. the
   coordinator's commit waits for the participant's prepare): the
   requester fires on the reservation, which both releases us and
   supplies the occurrence we were waiting for.  A request that cannot
   be granted right now queues until the current holder releases. *)
let rec consider_reservation ctx t requester =
  let sym = t.sym in
  if t.decided_pol <> None then begin
    (* The requester hears the announcement (it watches the symbol). *)
    Wf_obs.Metrics.bump ctx.meters.reservations_denied;
    ctx.send (t.route (Literal.symbol requester))
      (Messages.Reserve_denied { sym; to_ = requester })
  end
  else begin
    let blocked_without_requester =
      t.parked <> []
      && List.for_all
           (fun p ->
             Gtable.symbolic_status ~reserved:t.reserved
               ~never:(Symbol.Set.singleton (Literal.symbol requester))
               t.knowledge (guard_of_parked p)
             = Knowledge.False)
           t.parked
    in
    let orderly =
      Symbol.compare (Literal.symbol requester) t.sym < 0
      || t.parked = [] || blocked_without_requester
    in
    if t.holder = None && orderly then begin
      t.holder <- Some requester;
      Wf_obs.Metrics.bump ctx.meters.reservations_granted;
      ctx.send (t.route (Literal.symbol requester))
        (Messages.Reserve_granted { sym; to_ = requester })
    end
    else if t.holder <> None then
      (* Busy: queue until the holder releases. *)
      t.waiters_back <- requester :: t.waiters_back
    else begin
      Wf_obs.Metrics.bump ctx.meters.reservations_denied;
      ctx.send (t.route (Literal.symbol requester))
        (Messages.Reserve_denied { sym; to_ = requester })
    end
  end

and drain_waiters ctx t =
  (match t.waiters_front with
  | [] ->
      t.waiters_front <- List.rev t.waiters_back;
      t.waiters_back <- []
  | _ -> ());
  match t.waiters_front with
  | [] -> ()
  | requester :: rest ->
      t.waiters_front <- rest;
      consider_reservation ctx t requester

let attempt ?vetted ~entailed ctx t pol =
  match t.decided_pol with
  | Some d when d = pol -> () (* already occurred *)
  | Some _ -> ctx.reject (lit t pol)
  | None ->
      let cell =
        match vetted with
        | Some cell -> cell
        | None -> Gtable.cell (Guard.conj (guard_of t pol) entailed)
      in
      let p = park ~pol ~via_trigger:false cell in
      if List.exists (fun q -> q.pol = pol && not q.via_trigger) t.parked then ()
      else begin
        let attr = attr_of t pol in
        t.parked <- p :: t.parked;
        try_fire ctx t p;
        if List.memq p t.parked then re_evaluate ctx t;
        (* A non-delayable attempt must be decided immediately: if it is
           still parked (guard Unknown), reject it when possible, force
           it through otherwise. *)
        if (not attr.Attribute.delayable) && List.memq p t.parked then begin
          t.parked <- List.filter (fun q -> q != p) t.parked;
          if attr.Attribute.rejectable then begin
            note_assim ctx Wf_obs.Trace.Rejected (guard_of_parked p);
            ctx.reject (lit t pol)
          end
          else begin
            Wf_obs.Metrics.bump ctx.meters.forced_violations;
            note_assim ctx Wf_obs.Trace.Forced (guard_of_parked p);
            do_fire ctx t p
          end
        end
      end

let note_occurred ctx t l ~seqno =
  (* If reservations were backed off, any parked attempt may retry them
     once the backoff clears below, so the gated rescan is off the
     table. *)
  let had_backoff = not (Symbol.Set.is_empty t.reserve_backoff) in
  (if Symbol.equal (Literal.symbol l) t.sym then begin
     t.decided_pol <- Some l.Literal.pol;
     t.holder <- None
   end);
  (match Knowledge.occurred l ~seqno t.knowledge with
  | know ->
      t.knowledge <- know;
      step_views t (Gtable.Occurred (l, seqno))
  | exception Invalid_argument _ ->
      Wf_obs.Metrics.bump ctx.meters.contradictory_announcements);
  t.reserve_backoff <- Symbol.Set.empty;
  t.promise_requested <-
    Literal.Set.filter
      (fun x -> not (Symbol.equal (Literal.symbol x) (Literal.symbol l)))
      t.promise_requested;
  (* A reservation on a now-decided symbol is moot. *)
  (match t.reserve_inflight with
  | Some sym when Symbol.equal sym (Literal.symbol l) -> t.reserve_inflight <- None
  | _ -> ());
  if had_backoff then re_evaluate ctx t
  else re_evaluate ~touched:(Literal.symbol l) ctx t

let handle ctx t msg =
  match msg with
  | Messages.Announce { lit = l; seqno } -> (
      (* The channel delivers exactly once, but stay robust if a lower
         layer ever degrades to at-least-once: re-announcements of a
         known fate are counted and ignored. *)
      match Knowledge.fate_of t.knowledge (Literal.symbol l) with
      | Some (Knowledge.Occurred (pol, _)) when pol = l.Literal.pol ->
          Wf_obs.Metrics.bump ctx.meters.duplicate_announcements
      | _ -> note_occurred ctx t l ~seqno)
  | Messages.Promise { lit = l; _ } ->
      t.knowledge <- Knowledge.promised l t.knowledge;
      step_views t (Gtable.Promised l);
      re_evaluate ~touched:(Literal.symbol l) ctx t
  | Messages.Promise_request { target; requester; offers } ->
      if Symbol.equal (Literal.symbol target) t.sym then
        grant_or_defer ctx t (target.Literal.pol, requester, offers)
  | Messages.Reserve { sym; requester } ->
      if Symbol.equal sym t.sym then consider_reservation ctx t requester
  | Messages.Reserve_granted { sym; _ } ->
      (match t.reserve_inflight with
      | Some s when Symbol.equal s sym -> t.reserve_inflight <- None
      | _ -> ());
      if not (Symbol.Set.mem sym t.reserved) then begin
        t.reserved <- Symbol.Set.add sym t.reserved;
        step_views t (Gtable.Reserved sym)
      end;
      t.reserve_queue <- List.filter (fun s -> not (Symbol.equal s sym)) t.reserve_queue;
      advance_reservations ctx t;
      re_evaluate ~touched:sym ctx t
  | Messages.Reserve_denied { sym; _ } ->
      (match t.reserve_inflight with
      | Some s when Symbol.equal s sym -> t.reserve_inflight <- None
      | _ -> ());
      t.reserve_backoff <- Symbol.Set.add sym t.reserve_backoff;
      t.reserve_queue <- List.filter (fun s -> not (Symbol.equal s sym)) t.reserve_queue;
      advance_reservations ctx t
  | Messages.Release { sym; _ } ->
      if Symbol.equal sym t.sym then begin
        t.holder <- None;
        drain_waiters ctx t;
        re_evaluate ctx t
      end
  | Messages.Recovered { sym; _ } -> (
      (* A watched peer crashed and replayed its journal.  Its durable
         state is intact, but announcements we sent while it was down
         may have been given up on a lower layer; if our fate is
         decided, re-announce it — the receiver's duplicate check
         absorbs the copy if it already knew. *)
      match (t.decided_pol, Knowledge.seqno_of t.knowledge t.sym) with
      | Some pol, Some seqno ->
          Wf_obs.Metrics.bump ctx.meters.recovery_reannounces;
          ctx.send (t.route sym) (Messages.Announce { lit = lit t pol; seqno })
      | _ -> ())

let force_reject_parked ctx t =
  let parked = t.parked in
  t.parked <- [];
  List.iter
    (fun p ->
      if not p.via_trigger then ctx.reject (lit t p.pol);
      Wf_obs.Metrics.bump ctx.meters.parked_rejected_at_close)
    parked;
  release_all ctx t

(* ---- Crash recovery -------------------------------------------------

   The actor's state evolution is a deterministic function of the
   sequence of inputs below: every entry point is one constructor, and
   none of the [ctx] callbacks feeds anything back into the actor within
   the same call.  That makes write-ahead journaling sufficient for
   recovery — journal the input, apply it, and on restart replay the
   journal against a fresh actor with a muted [ctx] (sends, fires, and
   rejections already happened in the pre-crash incarnation; replaying
   them would double side effects). *)

type input =
  | I_attempt of { pol : Literal.polarity; entailed : Guard.t }
  | I_occurred of { lit : Literal.t; seqno : int }
  | I_message of Messages.t
  | I_close

let apply ?vetted ctx t = function
  | I_attempt { pol; entailed } -> attempt ?vetted ~entailed ctx t pol
  | I_occurred { lit = l; seqno } -> note_occurred ctx t l ~seqno
  | I_message m -> handle ctx t m
  | I_close -> force_reject_parked ctx t

let muted_ctx stats =
  {
    meters = meters stats;
    send = (fun _ _ -> ());
    fire = ignore;
    reject = ignore;
    (* A muted trigger reports success: whether the pre-crash trigger
       succeeded or faulted, the actor's own state ends up the same
       (firing is a [ctx] effect, not a state change). *)
    trigger_task = (fun _ -> true);
    emit_assim = None;
  }

type snapshot = {
  s_knowledge : Knowledge.t;
  s_reserved : Symbol.Set.t;
  s_reserve_queue : Symbol.t list;
  s_reserve_inflight : Symbol.t option;
  s_reserve_backoff : Symbol.Set.t;
  s_holder : Literal.t option;
  s_waiters : Literal.t list;
  s_parked : (Literal.polarity * bool * Guard.t) list;
  s_decided_pol : Literal.polarity option;
  s_promise_requested : Literal.Set.t;
  s_deferred_grants : (Literal.polarity * Literal.t * Literal.t list) list;
  s_trigger_engaged : bool;
}

let snapshot t =
  {
    s_knowledge = t.knowledge;
    s_reserved = t.reserved;
    s_reserve_queue = t.reserve_queue;
    s_reserve_inflight = t.reserve_inflight;
    s_reserve_backoff = t.reserve_backoff;
    s_holder = t.holder;
    s_waiters = waiters t;
    s_parked =
      List.map (fun p -> (p.pol, p.via_trigger, guard_of_parked p)) t.parked;
    s_decided_pol = t.decided_pol;
    s_promise_requested = t.promise_requested;
    s_deferred_grants = t.deferred_grants;
    s_trigger_engaged = t.trigger_engaged;
  }

let restore t s =
  t.knowledge <- s.s_knowledge;
  t.reserved <- s.s_reserved;
  t.reserve_queue <- s.s_reserve_queue;
  t.reserve_inflight <- s.s_reserve_inflight;
  t.reserve_backoff <- s.s_reserve_backoff;
  t.holder <- s.s_holder;
  t.waiters_front <- s.s_waiters;
  t.waiters_back <- [];
  t.parked <-
    List.map
      (fun (pol, via_trigger, guard) -> park ~pol ~via_trigger (Gtable.cell guard))
      s.s_parked;
  t.decided_pol <- s.s_decided_pol;
  t.promise_requested <- s.s_promise_requested;
  t.deferred_grants <- s.s_deferred_grants;
  t.trigger_engaged <- s.s_trigger_engaged

let equal_option eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> eq x y
  | _ -> false

let equal_parked (pol_a, via_a, g_a) (pol_b, via_b, g_b) =
  pol_a = pol_b && via_a = via_b && Guard.equal g_a g_b

let equal_grant (pol_a, req_a, offers_a) (pol_b, req_b, offers_b) =
  pol_a = pol_b && Literal.equal req_a req_b
  && List.equal Literal.equal offers_a offers_b

let equal_state a b =
  let sa = snapshot a and sb = snapshot b in
  Knowledge.equal sa.s_knowledge sb.s_knowledge
  && Symbol.Set.equal sa.s_reserved sb.s_reserved
  && List.equal Symbol.equal sa.s_reserve_queue sb.s_reserve_queue
  && equal_option Symbol.equal sa.s_reserve_inflight sb.s_reserve_inflight
  && Symbol.Set.equal sa.s_reserve_backoff sb.s_reserve_backoff
  && equal_option Literal.equal sa.s_holder sb.s_holder
  && List.equal Literal.equal sa.s_waiters sb.s_waiters
  && List.equal equal_parked sa.s_parked sb.s_parked
  && sa.s_decided_pol = sb.s_decided_pol
  && Literal.Set.equal sa.s_promise_requested sb.s_promise_requested
  && List.equal equal_grant sa.s_deferred_grants sb.s_deferred_grants
  && Bool.equal sa.s_trigger_engaged sb.s_trigger_engaged

(* Canonical fingerprint of the mutable state, for the model checker's
   visited-state dedup.  Sets are folded in their (sorted) element
   order; guards contribute their interned {!Guard.uid}, so hashing a
   parked attempt costs O(1) regardless of guard size.  [evals] is
   excluded, mirroring {!snapshot}: it only refines trace outcomes
   (Parked vs Reduced), not behavior. *)
let fingerprint t =
  let open Fingerprint in
  let fp_sym h s = string h (Symbol.name s) in
  let fp_pol h = function Literal.Pos -> int h 1 | Literal.Neg -> int h 2 in
  let fp_lit h (l : Literal.t) = fp_pol (fp_sym h l.Literal.sym) l.Literal.pol in
  let fp_set h s = list fp_sym h (Symbol.Set.elements s) in
  let h = fp_sym init t.sym in
  let h =
    list
      (fun h sym ->
        let h = fp_sym h sym in
        match Knowledge.fate_of t.knowledge sym with
        | Some (Knowledge.Occurred (pol, seqno)) -> int (fp_pol (int h 1) pol) seqno
        | Some (Knowledge.Promised pol) -> fp_pol (int h 2) pol
        | None -> int h 0)
      h
      (Knowledge.symbols t.knowledge)
  in
  let h = fp_set h t.reserved in
  let h = list fp_sym h t.reserve_queue in
  let h = option fp_sym h t.reserve_inflight in
  let h = fp_set h t.reserve_backoff in
  let h = option fp_lit h t.holder in
  let h = list fp_lit h (waiters t) in
  let h =
    list
      (fun h p ->
        int (bool (fp_pol h p.pol) p.via_trigger) (Guard.uid (guard_of_parked p)))
      h t.parked
  in
  let h = option fp_pol h t.decided_pol in
  let h = list fp_lit h (Literal.Set.elements t.promise_requested) in
  let h =
    list
      (fun h (pol, requester, offers) ->
        list fp_lit (fp_lit (fp_pol h pol) requester) offers)
      h t.deferred_grants
  in
  bool h t.trigger_engaged

let watched_symbols t =
  let acc =
    List.fold_left
      (fun acc p -> Symbol.Set.union acc p.watch)
      Symbol.Set.empty t.parked
  in
  let acc = Symbol.Set.union acc (Gtable.cell_symbols t.guard_pos) in
  let acc = Symbol.Set.union acc (Gtable.cell_symbols t.guard_neg) in
  Symbol.Set.remove t.sym acc

(* --- durable journal codec ------------------------------------------------ *)

module B = Wf_store.Binio

let input_codec =
  B.union B.uint
    [
      B.case 0 (B.pair Wire.polarity Wire.guard)
        (fun (pol, entailed) -> I_attempt { pol; entailed })
        (function
          | I_attempt { pol; entailed } -> Some (pol, entailed) | _ -> None);
      B.case 1 (B.pair Wire.literal B.int)
        (fun (lit, seqno) -> I_occurred { lit; seqno })
        (function I_occurred { lit; seqno } -> Some (lit, seqno) | _ -> None);
      B.case 2 Wire.message
        (fun m -> I_message m)
        (function I_message m -> Some m | _ -> None);
      B.case 3 B.unit
        (fun () -> I_close)
        (function I_close -> Some () | _ -> None);
    ]

let snapshot_codec =
  B.map
    (fun ( ( (s_knowledge, s_reserved, s_reserve_queue),
             (s_reserve_inflight, s_reserve_backoff, s_holder) ),
           ( (s_waiters, s_parked, s_decided_pol),
             (s_promise_requested, s_deferred_grants, s_trigger_engaged) ) ) ->
      {
        s_knowledge;
        s_reserved;
        s_reserve_queue;
        s_reserve_inflight;
        s_reserve_backoff;
        s_holder;
        s_waiters;
        s_parked;
        s_decided_pol;
        s_promise_requested;
        s_deferred_grants;
        s_trigger_engaged;
      })
    (fun s ->
      ( ( (s.s_knowledge, s.s_reserved, s.s_reserve_queue),
          (s.s_reserve_inflight, s.s_reserve_backoff, s.s_holder) ),
        ( (s.s_waiters, s.s_parked, s.s_decided_pol),
          (s.s_promise_requested, s.s_deferred_grants, s.s_trigger_engaged) ) ))
    B.(
      pair
        (pair
           (triple Wire.knowledge Wire.symbol_set (list Wire.symbol))
           (triple (option Wire.symbol) Wire.symbol_set (option Wire.literal)))
        (pair
           (triple (list Wire.literal)
              (list (triple Wire.polarity bool Wire.guard))
              (option Wire.polarity))
           (triple Wire.literal_set
              (list (triple Wire.polarity Wire.literal (list Wire.literal)))
              bool)))

let codec = Wf_store.Log.binio_codec input_codec snapshot_codec

module For_testing = struct
  let waiters = waiters
end
