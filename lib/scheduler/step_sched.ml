open Wf_core
open Wf_tasks

(* A step-controllable driver of the ground core [Event_sched] drives:
   same plan, actors, agents, journals, recovery and closing
   ([Ground]), but no network — protocol messages wait in explicit
   per-(sender, receiver) FIFO queues and every transition happens only
   when the caller performs it.  See the interface for the model
   relative to the simulator. *)

module Pair = struct
  type t = Symbol.t * Symbol.t

  let compare (a1, b1) (a2, b2) =
    let c = Symbol.compare a1 a2 in
    if c <> 0 then c else Symbol.compare b1 b2
end

module PairMap = Map.Make (Pair)

(* Purely functional FIFO queue (banker's deque): push is O(1) and pop
   amortized O(1), against the O(n) tail append of a plain list that
   made deep-interleaving model checks quadratic in queue length.
   Being persistent, snapshots keep sharing queues by value. *)
module Dq = struct
  type 'a t = { front : 'a list; back : 'a list }

  let empty = { front = []; back = [] }
  let is_empty q = q.front = [] && q.back = []
  let push q x = { q with back = x :: q.back }

  (* Keep [front] nonempty unless the queue is empty, so [peek] after
     normalization is O(1). *)
  let norm q =
    match q.front with
    | [] -> { front = List.rev q.back; back = [] }
    | _ -> q

  let peek q = match (norm q).front with x :: _ -> Some x | [] -> None

  let pop q =
    match norm q with
    | { front = []; _ } -> None
    | { front = x :: front; back } -> Some (x, { front; back })

  let to_list q = q.front @ List.rev q.back
end

(* The checker's side of a run: queues, epochs and the violation
   counters, all reverted on backtracking.  Actors, agents and journals
   live in the shared ground core. *)
type queues = {
  wf : Workflow_def.t;
  nsites : int;
  instances : string list; (* sorted *)
  epochs : int array;
  mutable queues : Messages.t Dq.t PairMap.t; (* oldest first *)
  mutable forced : int;
  mutable uncontrollable : int;
  mutable crashes : int;
}

type t = queues Ground.t

let workflow (t : t) = t.driver.wf
let compiled (t : t) = Run_plan.compiled t.plan
let num_sites (t : t) = t.driver.nsites
let symbols (t : t) = Run_plan.symbols t.plan
let stats (t : t) = t.stats
let rejected (t : t) = List.rev t.rejected
let forced (t : t) = t.driver.forced
let uncontrollable (t : t) = t.driver.uncontrollable
let crashes_used (t : t) = t.driver.crashes
let epoch (t : t) site = t.driver.epochs.(site)
let decided (t : t) =
  Array.fold_right
    (fun (slot : Ground.slot) acc -> if slot.decided then slot.sym :: acc else acc)
    t.slots []

let trace (t : t) = List.rev_map (fun (o : Ground.occurrence) -> o.lit) t.occurrences

let agent_of (t : t) instance = (Hashtbl.find t.tasks instance).Ground.agent

let enqueue (t : t) ~src ~dst msg =
  let d = t.driver in
  let key = (src, dst) in
  let q = Option.value (PairMap.find_opt key d.queues) ~default:Dq.empty in
  d.queues <- PairMap.add key (Dq.push q msg) d.queues

(* {2 Transitions} *)

let enabled_attempts (t : t) =
  List.filter
    (fun instance -> Agent.want (agent_of t instance) <> None)
    t.driver.instances

let do_attempt (t : t) instance =
  let agent =
    match Hashtbl.find_opt t.tasks instance with
    | Some task -> task.agent
    | None -> invalid_arg ("Step_sched.do_attempt: unknown instance " ^ instance)
  in
  match Agent.want agent with
  | None -> invalid_arg ("Step_sched.do_attempt: no enabled attempt for " ^ instance)
  | Some (sym, attr) ->
      Agent.begin_attempt agent sym;
      if Ground.attempt t agent (Ground.slot_of t sym) attr then
        t.driver.uncontrollable <- t.driver.uncontrollable + 1

let nonempty_queues (t : t) = List.map fst (PairMap.bindings t.driver.queues)

let queue_head (t : t) key =
  match PairMap.find_opt key t.driver.queues with
  | Some q -> Dq.peek q
  | None -> None

let do_deliver (t : t) ((_, dst) as key) =
  let d = t.driver in
  match Option.bind (PairMap.find_opt key d.queues) Dq.pop with
  | None -> invalid_arg "Step_sched.do_deliver: empty queue"
  | Some (msg, rest) ->
      d.queues <-
        (if Dq.is_empty rest then PairMap.remove key d.queues
         else PairMap.add key rest d.queues);
      Wf_obs.Metrics.incr t.stats "messages_delivered";
      Ground.deliver (Ground.slot_of t dst) (Actor.I_message msg)

let check_site name (t : t) site =
  if site < 0 || site >= t.driver.nsites then
    invalid_arg ("Step_sched." ^ name ^ ": site out of range")

let do_crash (t : t) site =
  check_site "do_crash" t site;
  let d = t.driver in
  d.crashes <- d.crashes + 1;
  d.epochs.(site) <- d.epochs.(site) + 1;
  Wf_obs.Metrics.incr t.stats "net_crashes";
  Wf_obs.Metrics.incr t.stats "net_restarts";
  let hosted = Ground.hosted t site in
  List.iter (Ground.recover t) hosted;
  Ground.handshake t ~epoch:d.epochs.(site) hosted

(* Torn-write soundness probe.  One actor's journal content (latest
   checkpoint + suffix) is re-serialized through the binary codec onto a
   fresh simulated medium and synced; then one more in-flight entry is
   appended and its frame torn at byte [keep] — the crash struck
   mid-write.  Salvage must keep exactly the synced frames, and the
   state rebuilt from the salvaged log must equal the state ordinary
   journal recovery rebuilds: the torn frame's input was never applied,
   so losing it must lose nothing. *)
let torn_recovery_ok (t : t) (slot : Ground.slot) =
  let ckpt, suffix = Wf_store.Journal.recover slot.journal.j in
  let reference = Ground.replay t slot (ckpt, suffix) in
  let synced_frames =
    (match ckpt with Some _ -> 1 | None -> 0) + List.length suffix
  in
  (* Tear inside the header, at its last byte, and inside the payload. *)
  let keeps =
    [ 1; Wf_store.Log.header_length - 1; Wf_store.Log.header_length + 3 ]
  in
  List.for_all
    (fun keep ->
      let sim = Wf_store.Media.Sim.create () in
      let j = Wf_store.Journal.create ~store:(Actor.codec, sim) () in
      Option.iter (Wf_store.Journal.checkpoint j) ckpt;
      List.iter (Wf_store.Journal.append j) suffix;
      Wf_store.Journal.sync j;
      Wf_store.Journal.append j Actor.I_close;
      Wf_store.Media.Sim.tear_tail sim ~keep;
      (* A fault-free medium draws nothing on the crash: only the torn
         frame is lost. *)
      Wf_store.Journal.crash j;
      let report = Option.get (Wf_store.Journal.last_salvage j) in
      report.Wf_store.Log.sr_frames = synced_frames
      && Actor.equal_state reference
           (Ground.replay t slot (Wf_store.Journal.recover j)))
    keeps

let do_crash_torn t site =
  check_site "do_crash_torn" t site;
  let ok = List.for_all (torn_recovery_ok t) (Ground.hosted t site) in
  do_crash t site;
  ok

(* {2 Backtracking} *)

(* Per-slot state in slot order: actor, journal, decided flag and the
   complements a trigger stashed. *)
type snapshot = {
  s_actors : Actor.snapshot array;
  s_journals : (Actor.input, Actor.snapshot) Wf_store.Journal.t array;
  s_agents : (string * Agent.snapshot) list;
  s_queues : Messages.t Dq.t PairMap.t;
  s_pending : Literal.t list option array;
  s_epochs : int array;
  s_decided : bool array;
  s_seqno : int;
  s_occurrences : Ground.occurrence list;
  s_rejected : Literal.t list;
  s_forced : int;
  s_uncontrollable : int;
  s_crashes : int;
}

let snapshot (t : t) =
  let d = t.driver in
  let per_slot f = Array.map f t.slots in
  {
    s_actors = per_slot (fun slot -> Actor.snapshot slot.actor);
    s_journals = per_slot (fun slot -> Wf_store.Journal.copy slot.journal.j);
    s_agents =
      List.map (fun i -> (i, Agent.snapshot (agent_of t i))) d.instances;
    s_queues = d.queues;
    s_pending = per_slot (fun slot -> slot.pending_complements);
    s_epochs = Array.copy d.epochs;
    s_decided = per_slot (fun slot -> slot.decided);
    s_seqno = t.seqno;
    s_occurrences = t.occurrences;
    s_rejected = t.rejected;
    s_forced = d.forced;
    s_uncontrollable = d.uncontrollable;
    s_crashes = d.crashes;
  }

let restore (t : t) s =
  let d = t.driver in
  (* Restoring copies out of the snapshot's journals, which stay
     pristine: one snapshot seeds many branches. *)
  Array.iteri
    (fun i (slot : Ground.slot) ->
      Actor.restore slot.actor s.s_actors.(i);
      Wf_store.Journal.restore slot.journal.j ~from:s.s_journals.(i);
      slot.journal.depth <- 0;
      slot.pending_complements <- s.s_pending.(i);
      slot.decided <- s.s_decided.(i))
    t.slots;
  List.iter (fun (i, sa) -> Agent.restore (agent_of t i) sa) s.s_agents;
  d.queues <- s.s_queues;
  Array.blit s.s_epochs 0 d.epochs 0 (Array.length d.epochs);
  t.seqno <- s.s_seqno;
  t.occurrences <- s.s_occurrences;
  t.rejected <- s.s_rejected;
  d.forced <- s.s_forced;
  d.uncontrollable <- s.s_uncontrollable;
  d.crashes <- s.s_crashes

module F = Fingerprint

let fp_sym h s = F.string h (Symbol.name s)
let fp_pol h = function Literal.Pos -> F.int h 1 | Literal.Neg -> F.int h 2
let fp_lit h (l : Literal.t) = fp_pol (fp_sym h l.Literal.sym) l.Literal.pol

let fp_msg h (m : Messages.t) =
  match m with
  | Messages.Announce { lit; seqno } -> F.int (fp_lit (F.int h 1) lit) seqno
  | Messages.Promise_request { target; requester; offers } ->
      F.list fp_lit (fp_lit (fp_lit (F.int h 2) target) requester) offers
  | Messages.Promise { lit; to_ } -> fp_lit (fp_lit (F.int h 3) lit) to_
  | Messages.Reserve { sym; requester } ->
      fp_lit (fp_sym (F.int h 4) sym) requester
  | Messages.Reserve_granted { sym; to_ } ->
      fp_lit (fp_sym (F.int h 5) sym) to_
  | Messages.Reserve_denied { sym; to_ } -> fp_lit (fp_sym (F.int h 6) sym) to_
  | Messages.Release { sym; holder } -> fp_lit (fp_sym (F.int h 7) sym) holder
  | Messages.Recovered { sym; epoch } -> F.int (fp_sym (F.int h 8) sym) epoch

let fingerprint (t : t) =
  let d = t.driver in
  let h = F.init in
  (* Actors (in slot order, which is symbol order) and agents in their
     fixed sorted orders. *)
  let h =
    Array.fold_left
      (fun h (slot : Ground.slot) -> F.int h (Actor.fingerprint slot.actor))
      h t.slots
  in
  let h =
    List.fold_left
      (fun h i -> F.int h (Agent.fingerprint (agent_of t i)))
      h d.instances
  in
  let h =
    PairMap.fold
      (fun (src, dst) q h ->
        (* Fold in logical (oldest-first) order so two states whose
           deques differ only in front/back split fingerprint alike. *)
        F.list fp_msg (fp_sym (fp_sym h src) dst) (Dq.to_list q))
      d.queues h
  in
  let h =
    List.fold_left
      (fun h (o : Ground.occurrence) -> F.int (fp_lit h o.lit) o.seqno)
      (F.int h (List.length t.occurrences))
      t.occurrences
  in
  let h = F.list fp_lit h t.rejected in
  let h =
    Array.fold_left
      (fun h (slot : Ground.slot) ->
        match slot.pending_complements with
        | Some cs -> F.list fp_lit (fp_sym h slot.sym) cs
        | None -> h)
      h t.slots
  in
  let h = Array.fold_left F.int h d.epochs in
  let h =
    Array.fold_left
      (fun h (slot : Ground.slot) -> if slot.decided then fp_sym h slot.sym else h)
      h t.slots
  in
  F.int (F.int (F.int (F.int h t.seqno) d.forced) d.uncontrollable) d.crashes

(* {2 Build} *)

(* Deterministically drain everything pending: enabled attempts first
   (sorted by instance), then queued deliveries in sorted pair order.
   Budgeted so a pathological spec cannot hang the checker. *)
let drain t =
  let budget = ref 200_000 in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    decr budget;
    match enabled_attempts t with
    | instance :: _ -> do_attempt t instance
    | [] -> (
        match nonempty_queues t with
        | key :: _ -> do_deliver t key
        | [] -> continue_ := false)
  done

let hooks : queues Ground.hooks =
  {
    (* Queued, not delivered: the propagation order is the caller's. *)
    send =
      (fun t ~priority:_ ~src ~dst msg -> enqueue t ~src:src.sym ~dst:dst.sym msg);
    kick = (fun _ _ -> ());
    now = (fun _ -> 0.0);
    on_fire = (fun _ _ -> ());
    emit_assim =
      (* The [Forced] counter must revert on backtracking, so it lives
         in the snapshotted state, not in the metrics. *)
      (fun t _ ->
        Some
          (fun outcome _guard ->
            match outcome with
            | Wf_obs.Trace.Forced -> t.driver.forced <- t.driver.forced + 1
            | _ -> ()));
    settle = drain;
    iter_tasks =
      (fun t f ->
        List.iter (fun i -> f (Hashtbl.find t.tasks i)) t.driver.instances);
  }

let build ?(checkpoint_every = 32) ?(guard_overrides = []) wf =
  let plan =
    match Run_plan.of_workflow wf with
    | Ok plan -> plan
    | Error msg -> invalid_arg ("Step_sched.build: " ^ msg)
  in
  let nsites = Workflow_def.num_sites wf in
  let driver =
    {
      wf;
      nsites;
      instances =
        List.sort String.compare
          (List.map (fun (task : Workflow_def.task) -> task.instance) wf.tasks);
      epochs = Array.make (max nsites 1) 0;
      queues = PairMap.empty;
      forced = 0;
      uncontrollable = 0;
      crashes = 0;
    }
  in
  let journal _ =
    let j = Wf_store.Journal.create ~checkpoint_every () in
    { Ground.j; depth = 0 }
  in
  Ground.create ~guard_overrides ~stats:(Wf_obs.Metrics.create ()) ~journal ~hooks
    ~driver wf plan

let run_closing t =
  drain t;
  Ground.close t
