open Wf_core
open Wf_tasks
module Netsim = Wf_sim.Netsim
module Channel = Wf_scheduler.Channel
module Ground = Wf_scheduler.Ground
module Run_plan = Wf_scheduler.Run_plan
module Actor = Wf_scheduler.Actor
module Messages = Wf_scheduler.Messages
module Trace_obs = Wf_obs.Trace

module Tkey = struct
  type t =
    | Attempt of string
    | Deliver of Symbol.t * Symbol.t
    | Crash of int
    | Torn of int

  let rank = function
    | Attempt _ -> 0
    | Deliver _ -> 1
    | Crash _ -> 2
    | Torn _ -> 3

  let compare a b =
    match (a, b) with
    | Attempt i, Attempt j -> String.compare i j
    | Deliver (a1, b1), Deliver (a2, b2) ->
        let c = Symbol.compare a1 a2 in
        if c <> 0 then c else Symbol.compare b1 b2
    | Crash s1, Crash s2 -> Int.compare s1 s2
    | Torn s1, Torn s2 -> Int.compare s1 s2
    | _ -> Int.compare (rank a) (rank b)

  let to_string = function
    | Attempt i -> "attempt:" ^ i
    | Deliver (a, b) -> "deliver:" ^ Symbol.name a ^ ">" ^ Symbol.name b
    | Crash s -> "crash:" ^ string_of_int s
    | Torn s -> "torn:" ^ string_of_int s

  module Set = Set.Make (struct
    type nonrec t = t

    let compare = compare
  end)

  module For_testing = struct
    let compare = compare
  end
end

type divergence = {
  d_kind : string;
  d_detail : string;
  d_schedule : Tkey.t list;
  d_trace : Literal.t list;
}

type report = {
  r_spec : string;
  r_mode : string;
  r_states : int;
  r_transitions : int;
  r_traces : int;
  r_dedup_hits : int;
  r_sleep_skips : int;
  r_max_depth : int;
  r_complete : bool;
  r_crash_depth : int;
  r_recoveries : int;
  r_closed_traces : Literal.t list list;
  r_divergences : divergence list;
}

(* {2 Coupling classes}

   Union-find over the spec's symbols: all symbols of one dependency
   are unioned, and all significant symbols of one task are unioned
   (the task's transitions entail complements across them).  A class
   then over-approximates everything one protocol conversation can
   touch: guards conjoin terms of dependencies mentioning the event,
   announcements flow only to guard-watchers, promise/reserve traffic
   stays within a guard's symbols, and agent fallbacks stay within a
   task. *)

module IntSet = Set.Make (Int)

type classes = {
  idx : (Symbol.t, int) Hashtbl.t;
  parent : int array;
  by_instance : (string, IntSet.t) Hashtbl.t;
  by_site : (int, IntSet.t) Hashtbl.t;
}

let rec uf_find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    let r = uf_find parent p in
    parent.(i) <- r;
    r
  end

let uf_union parent i j =
  let ri = uf_find parent i and rj = uf_find parent j in
  if ri <> rj then parent.(ri) <- rj

let task_symbols (task : Workflow_def.task) =
  List.map
    (fun (ev, _, _) ->
      Task_model.symbol_of_event task.model ~instance:task.instance ev)
    task.model.Task_model.significant

let all_symbols wf =
  let deps = Workflow_def.dependencies wf in
  let s =
    List.fold_left
      (fun acc d -> Symbol.Set.union acc (Expr.symbols d))
      Symbol.Set.empty deps
  in
  let s =
    List.fold_left
      (fun acc task ->
        List.fold_left (fun acc sym -> Symbol.Set.add sym acc) acc
          (task_symbols task))
      s wf.Workflow_def.tasks
  in
  Symbol.Set.elements s

let build_classes wf =
  let symbols = all_symbols wf in
  let idx = Hashtbl.create 64 in
  List.iteri (fun i s -> Hashtbl.replace idx s i) symbols;
  let parent = Array.init (List.length symbols) Fun.id in
  let union_all syms =
    match List.filter_map (Hashtbl.find_opt idx) syms with
    | [] | [ _ ] -> ()
    | i :: rest -> List.iter (fun j -> uf_union parent i j) rest
  in
  List.iter
    (fun d -> union_all (Symbol.Set.elements (Expr.symbols d)))
    (Workflow_def.dependencies wf);
  List.iter (fun task -> union_all (task_symbols task)) wf.Workflow_def.tasks;
  let class_of sym =
    match Hashtbl.find_opt idx sym with
    | Some i -> Some (uf_find parent i)
    | None -> None
  in
  let classes_of syms =
    List.fold_left
      (fun acc sym ->
        match class_of sym with Some c -> IntSet.add c acc | None -> acc)
      IntSet.empty syms
  in
  let by_instance = Hashtbl.create 16 in
  List.iter
    (fun (task : Workflow_def.task) ->
      Hashtbl.replace by_instance task.instance (classes_of (task_symbols task)))
    wf.Workflow_def.tasks;
  let by_site = Hashtbl.create 8 in
  List.iter
    (fun sym ->
      let site = Workflow_def.site_of wf sym in
      let cur =
        Option.value (Hashtbl.find_opt by_site site) ~default:IntSet.empty
      in
      match class_of sym with
      | Some c -> Hashtbl.replace by_site site (IntSet.add c cur)
      | None -> ())
    symbols;
  { idx; parent; by_instance; by_site }

let classes_of cl syms =
  List.fold_left
    (fun acc sym ->
      match Hashtbl.find_opt cl.idx sym with
      | Some i -> IntSet.add (uf_find cl.parent i) acc
      | None -> acc)
    IntSet.empty syms

let coupling_classes wf =
  let cl = build_classes wf in
  let buckets = Hashtbl.create 8 in
  Hashtbl.iter
    (fun sym i ->
      let r = uf_find cl.parent i in
      let cur = Option.value (Hashtbl.find_opt buckets r) ~default:[] in
      Hashtbl.replace buckets r (sym :: cur))
    cl.idx;
  Hashtbl.fold (fun _ syms acc -> List.sort Symbol.compare syms :: acc) buckets []
  |> List.sort (fun a b ->
         match (a, b) with
         | x :: _, y :: _ -> Symbol.compare x y
         | _ -> Stdlib.compare a b)

(* {2 The explored system}

   A run of [Event_sched] over a [Netsim] in controlled mode.  Every
   message lands in the lane of its (sending actor, receiving actor)
   pair, FIFO, and every agent arrival waits as a due action labeled
   with the attempted event's slot; a transition takes one lane's head
   or one arrival.  The run has no snapshot: a state is reached by
   replaying its schedule on a fresh build, which the run's determinism
   makes exact. *)

let plan_of wf =
  match Run_plan.of_workflow wf with
  | Ok plan -> plan
  | Error msg -> invalid_arg ("Mc: " ^ msg)

(* The explored network is fault-free, so every link is direct and no
   frame carries an ack ([Channel.Acked] never occurs). *)
let lane (rt : Ground.t) : Ground.payload Channel.wire -> int = function
  | Channel.Data { payload = src, dst, _; _ } -> (src * Array.length rt.slots) + dst
  | Channel.Hello { origin; _ } -> -1 - origin
  | Channel.Acked _ | Channel.Ack _ | Channel.Credit _ -> min_int

(* The transition a choice performs; [None] for control traffic. *)
let key_of (rt : Ground.t) = function
  | Netsim.Ready { payload = Channel.Data { payload = src, dst, _; _ }; _ } ->
      Some (Tkey.Deliver (rt.slots.(src).sym, rt.slots.(dst).sym))
  | Netsim.Ready _ -> None
  | Netsim.Due { label } ->
      Option.map
        (fun (task : Ground.task) -> Tkey.Attempt (Agent.instance task.agent))
        rt.slots.(label).task

let performs rt key c =
  match key_of rt c with Some k -> Tkey.compare k key = 0 | None -> false

let index_where p choices =
  let rec find i = function
    | [] -> None
    | c :: rest -> if p c then Some i else find (i + 1) rest
  in
  find 0 choices

(* The closing run's chooser: control traffic first, then the least
   transition — attempts by instance, then deliveries by pair. *)
let least rt choices =
  let _, best, _ =
    List.fold_left
      (fun (i, best, best_key) c ->
        let k = key_of rt c in
        if i = 0 || Option.compare Tkey.compare k best_key < 0 then (i + 1, i, k)
        else (i + 1, best, best_key))
      (0, 0, None) choices
  in
  best

let fresh ~guard_overrides wf plan =
  let rt =
    Wf_scheduler.Event_sched.build ~guard_overrides
      Wf_scheduler.Event_sched.default_config wf plan
  in
  Netsim.set_chooser rt.net ~lane:(lane rt) (least rt);
  Ground.start rt;
  rt

let start ?(guard_overrides = []) wf = fresh ~guard_overrides wf (plan_of wf)

let take (rt : Ground.t) key =
  match index_where (performs rt key) (Netsim.choices rt.net) with
  | Some i -> Netsim.take rt.net i
  | None -> invalid_arg ("Mc: " ^ Tkey.to_string key ^ " is not enabled")

(* A crash through the network's restart path: the channel bumps the
   epoch and says Hello, then every hosted actor recovers from its
   journal and runs the handshake.  The Hellos are delivered within the
   step; they touch no actor. *)
let crash (rt : Ground.t) site =
  Netsim.crash_restart rt.net site;
  let rec hellos () =
    match
      index_where (fun c -> Option.is_none (key_of rt c)) (Netsim.choices rt.net)
    with
    | Some i ->
        Netsim.take rt.net i;
        hellos ()
    | None -> ()
  in
  hellos ()

let perform rt = function
  | (Tkey.Attempt _ | Tkey.Deliver _) as key -> take rt key
  | Tkey.Crash site | Tkey.Torn site -> crash rt site

(* Torn-write soundness probe.  One actor's journal content (latest
   checkpoint + suffix) is re-serialized through the binary codec onto a
   fresh simulated medium and synced; then one more in-flight entry is
   appended and its frame torn at byte [keep] — the crash struck
   mid-write.  Salvage must keep exactly the synced frames, and the
   state rebuilt from the salvaged log must equal the state ordinary
   journal recovery rebuilds: the torn frame's input was never applied,
   so losing it must lose nothing. *)
let torn_recovery_ok rt (slot : Ground.slot) =
  let ckpt, suffix = Wf_store.Journal.recover slot.journal.j in
  let reference = Ground.replay rt slot (ckpt, suffix) in
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
           (Ground.replay rt slot (Wf_store.Journal.recover j)))
    keeps

let count (rt : Ground.t) name = Wf_obs.Metrics.count rt.stats name
let crashes_used rt = count rt "net_crashes"
let trace (rt : Ground.t) = List.rev_map (fun (o : Ground.occurrence) -> o.lit) rt.occurrences

module F = Fingerprint

let fp_sym h s = F.string h (Symbol.name s)
let fp_pol h = function Literal.Pos -> F.int h 1 | Literal.Neg -> F.int h 2
let fp_lit h (l : Literal.t) = fp_pol (fp_sym h l.Literal.sym) l.Literal.pol

(* A message is hashed by its journal encoding, which is injective. *)
let fp_msg h m = F.string h (Wf_store.Binio.encode Wf_scheduler.Wire.message m)

(* Canonical fingerprint of the explored state: actors (slot order),
   agents (instance order), the ready lanes (lane order, each oldest
   first) and due arrivals, the occurrence sequence, rejections, stashed
   trigger complements, channel epochs, decided flags, the violation
   counters and the crashes spent. *)
let fingerprint (rt : Ground.t) =
  let h =
    Array.fold_left
      (fun h (slot : Ground.slot) -> F.int h (Actor.fingerprint slot.actor))
      F.init rt.slots
  in
  let h =
    List.fold_left
      (fun h (task : Ground.task) -> F.int h (Agent.fingerprint task.agent))
      h
      (List.sort
         (fun (a : Ground.task) (b : Ground.task) ->
           String.compare (Agent.instance a.agent) (Agent.instance b.agent))
         (Array.to_list rt.tasks))
  in
  let ready =
    List.stable_sort
      (fun (a : _ Netsim.pending) (b : _ Netsim.pending) ->
        Int.compare (lane rt a.p_payload) (lane rt b.p_payload))
      (Netsim.pending_deliveries rt.net)
  in
  let h =
    List.fold_left
      (fun h (p : _ Netsim.pending) ->
        match p.p_payload with
        | Channel.Data { payload = src, dst, msg; _ } ->
            fp_msg (F.int (F.int h src) dst) msg
        | _ -> F.int h (lane rt p.p_payload))
      h ready
  in
  let h =
    F.list F.int h
      (List.sort Int.compare
         (List.filter_map
            (function Netsim.Due { label } -> Some label | Netsim.Ready _ -> None)
            (Netsim.choices rt.net)))
  in
  let h =
    List.fold_left
      (fun h (o : Ground.occurrence) -> F.int (fp_lit h o.lit) o.seqno)
      (F.int h (List.length rt.occurrences))
      rt.occurrences
  in
  let h = F.list fp_lit h rt.rejected in
  let h =
    Array.fold_left
      (fun h (slot : Ground.slot) ->
        match slot.pending_complements with
        | Some cs -> F.list fp_lit (fp_sym h slot.sym) cs
        | None -> h)
      h rt.slots
  in
  let h =
    Seq.fold_left
      (fun h site -> F.int h (Channel.epoch rt.chan site))
      h
      (Seq.init (Netsim.num_sites rt.net) Fun.id)
  in
  let h =
    Array.fold_left
      (fun h (slot : Ground.slot) -> if slot.decided then fp_sym h slot.sym else h)
      h rt.slots
  in
  List.fold_left
    (fun h name -> F.int h (count rt name))
    (F.int h rt.seqno)
    [ "forced_violations"; "uncontrollable_violations"; "net_crashes" ]

(* The transitions a state offers, sorted (attempts by instance, then
   deliveries by pair), each delivery with the message it delivers. *)
let moves (rt : Ground.t) =
  List.filter_map
    (fun c ->
      Option.map
        (fun k ->
          match c with
          | Netsim.Ready { payload = Channel.Data { payload = _, _, msg; _ }; _ } ->
              (k, Some msg)
          | _ -> (k, None))
        (key_of rt c))
    (Netsim.choices rt.net)
  |> List.sort (fun (a, _) (b, _) -> Tkey.compare a b)

(* The footprint of a transition, as a set of coupling classes.  For a
   delivery the payload matters: the lane's head, as the state shows it,
   which is stable while the key sits in a sleep set — no other
   transition can take (only append to) that lane. *)
let footprint cl moves key =
  match key with
  | Tkey.Attempt instance ->
      Option.value
        (Hashtbl.find_opt cl.by_instance instance)
        ~default:IntSet.empty
  | Tkey.Deliver (src, dst) ->
      let payload =
        match List.find_opt (fun (k, _) -> Tkey.compare k key = 0) moves with
        | Some (_, Some msg) -> classes_of cl (Messages.symbols msg)
        | _ -> IntSet.empty
      in
      IntSet.union (classes_of cl [ src; dst ]) payload
  | Tkey.Crash site | Tkey.Torn site ->
      Option.value (Hashtbl.find_opt cl.by_site site) ~default:IntSet.empty

(* {2 The DFS} *)

type state = {
  wf : Workflow_def.t;
  plan : Run_plan.t;
  guard_overrides : (Literal.t * Guard.t) list;
  nsites : int;
  cl : classes;
  deps : Expr.t list;
  alphabet : Symbol.Set.t;
  denots : (Expr.t * Trace.t list Lazy.t) list;
  dpor : bool;
  crash_depth : int;
  torn_writes : bool;
  max_states : int;
  visited : (int, Tkey.Set.t list ref) Hashtbl.t;
  seen_traces : (int, unit) Hashtbl.t;
  mutable live : Ground.t option; (* the run, while at the explored state *)
  mutable closed_traces : Literal.t list list; (* newest first *)
  mutable divergences : divergence list; (* newest first, capped *)
  mutable states : int;
  mutable transitions : int;
  mutable traces : int;
  mutable dedup_hits : int;
  mutable sleep_skips : int;
  mutable max_depth : int;
  mutable recoveries : int;
}

let create_state ~dpor ~crash_depth ~torn_writes ~max_states ~guard_overrides
    wf =
  let plan = plan_of wf in
  let deps = Workflow_def.dependencies wf in
  {
    wf;
    plan;
    guard_overrides;
    nsites = Workflow_def.num_sites wf;
    cl = build_classes wf;
    deps;
    alphabet = Symbol.Set.of_list (Run_plan.symbols plan);
    denots =
      List.map
        (fun d -> (d, lazy (Semantics.maximal_denotation (Expr.symbols d) d)))
        deps;
    dpor;
    crash_depth;
    torn_writes;
    max_states;
    visited = Hashtbl.create 4096;
    seen_traces = Hashtbl.create 256;
    live = None;
    closed_traces = [];
    divergences = [];
    states = 0;
    transitions = 0;
    traces = 0;
    dedup_hits = 0;
    sleep_skips = 0;
    max_depth = 0;
    recoveries = 0;
  }

(* The run at the end of [schedule] (newest first): the live one, or a
   fresh build that replays it. *)
let at st schedule =
  match st.live with
  | Some rt -> rt
  | None ->
      let rt = fresh ~guard_overrides:st.guard_overrides st.wf st.plan in
      List.iter (perform rt) (List.rev schedule);
      st.live <- Some rt;
      rt

exception Bounded

let max_divergences = 16

(* The transport's contract, checked at every explored delivery: the
   channel and the site handler hand the message to its addressee
   exactly once.  The addressee's journal takes the message, plus its
   own occurrence if the message decided it, and nothing else. *)
let handed_once (rt : Ground.t) dst f =
  let slot = rt.slots.(Option.get (Run_plan.index rt.plan dst)) in
  let appended () = Wf_store.Journal.total_appended slot.journal.j in
  let before = appended () and was_decided = slot.decided in
  f ();
  appended () - before = if slot.decided && not was_decided then 2 else 1

(* Perform one transition of the explored schedule: a torn crash first
   probes the site's journals, a delivery checks the transport, and
   recoveries are counted.  Either defect is recorded at once: it lies
   in the storage or transport layer, not in the closed trace, so it
   must not wait for (or depend on) the terminal-state oracle. *)
let execute st rt key schedule =
  let diverged kind detail =
    if List.length st.divergences < max_divergences then
      st.divergences <-
        { d_kind = kind; d_detail = detail; d_schedule = schedule; d_trace = trace rt }
        :: st.divergences
  in
  match key with
  | Tkey.Attempt _ -> perform rt key
  | Tkey.Deliver (_, dst) ->
      if not (handed_once rt dst (fun () -> perform rt key)) then
        diverged "delivery"
          (Fmt.str "%s did not hand its message to %a exactly once"
             (Tkey.to_string key) Symbol.pp dst)
  | Tkey.Crash site | Tkey.Torn site ->
      if
        key = Tkey.Torn site
        && not (List.for_all (torn_recovery_ok rt) (Ground.hosted rt site))
      then
        diverged "store"
          (Fmt.str "torn-write salvage diverged from journal recovery at site %d"
             site);
      let before = count rt "actor_recoveries" in
      perform rt key;
      st.recoveries <- st.recoveries + count rt "actor_recoveries" - before

let trace_fp tr =
  List.fold_left
    (fun h (l : Literal.t) ->
      F.int (F.string h (Symbol.name l.Literal.sym))
        (match l.Literal.pol with Literal.Pos -> 1 | Literal.Neg -> 2))
    F.init tr

(* The oracle, run on a closed (settled + deterministically closed)
   run: the realized trace must be a well-formed maximal trace that
   every dependency accepts, that the workflow generates (Definition 4),
   and whose per-dependency projections lie in the dependencies'
   maximal denotations; and no guard decision may have been forced
   through or violated by an uncontrollable event along the way. *)
let closed_divergences st rt schedule =
  let tr = trace rt in
  let divs = ref [] in
  let add kind detail =
    divs := { d_kind = kind; d_detail = detail; d_schedule = schedule; d_trace = tr } :: !divs
  in
  if not (Trace.well_formed tr) then
    add "ill-formed" (Fmt.str "repeated symbol in %a" Trace.pp tr)
  else begin
    if not (Trace.maximal st.alphabet tr) then begin
      let undecided =
        Symbol.Set.diff st.alphabet (Trace.symbols tr) |> Symbol.Set.elements
      in
      add "not-maximal"
        (Fmt.str "undecided: %a" (Fmt.list ~sep:Fmt.sp Symbol.pp) undecided)
    end;
    let viols = Correctness.violations st.deps tr in
    if viols <> [] then
      add "violation"
        (Fmt.str "%d dependencies violated by %a" (List.length viols)
           Trace.pp tr);
    let gen = Correctness.generates st.deps tr in
    let sat = viols = [] in
    if not gen then
      add "generates" (Fmt.str "not generated (Definition 4): %a" Trace.pp tr);
    if gen <> sat then
      add "theorem6"
        (Fmt.str "Correctness.generates=%b but no dependency violated=%b on %a"
           gen sat Trace.pp tr);
    List.iter
      (fun (d, denot) ->
        let dsyms = Expr.symbols d in
        let proj =
          List.filter (fun l -> Symbol.Set.mem (Literal.symbol l) dsyms) tr
        in
        if not (List.exists (Trace.equal proj) (Lazy.force denot)) then
          add "denotation"
            (Fmt.str "projection %a outside the dependency's denotation"
               Trace.pp proj))
      st.denots
  end;
  let forced = count rt "forced_violations" in
  if forced > 0 then
    add "forced" (Fmt.str "%d guard decisions forced through" forced);
  let uncontrollable = count rt "uncontrollable_violations" in
  if uncontrollable > 0 then
    add "uncontrollable"
      (Fmt.str "%d uncontrollable events fired against a False guard"
         uncontrollable);
  List.rev !divs

(* Close the live run with [Event_sched]'s own close and check it; the
   run is spent. *)
let check_terminal st rt schedule =
  st.traces <- st.traces + 1;
  Ground.close rt;
  st.live <- None;
  let tr = trace rt in
  let fp = trace_fp tr in
  if not (Hashtbl.mem st.seen_traces fp) then begin
    Hashtbl.replace st.seen_traces fp ();
    st.closed_traces <- tr :: st.closed_traces
  end;
  if List.length st.divergences < max_divergences then
    st.divergences <-
      List.rev_append (closed_divergences st rt schedule) st.divergences

let rec explore st depth sleep schedule =
  st.states <- st.states + 1;
  if st.states > st.max_states then raise Bounded;
  if depth > st.max_depth then st.max_depth <- depth;
  let rt = at st schedule in
  let fp = fingerprint rt in
  let skip =
    match Hashtbl.find_opt st.visited fp with
    | Some stored -> List.exists (fun s -> Tkey.Set.subset s sleep) !stored
    | None -> false
  in
  if skip then st.dedup_hits <- st.dedup_hits + 1
  else begin
    (match Hashtbl.find_opt st.visited fp with
    | Some stored ->
        (* drop dominated entries so the table stays small *)
        stored := sleep :: List.filter (fun s -> not (Tkey.Set.subset sleep s)) !stored
    | None -> Hashtbl.add st.visited fp (ref [ sleep ]));
    let moves = moves rt in
    let crashes =
      if crashes_used rt < st.crash_depth then
        List.init st.nsites (fun s -> Tkey.Crash s)
        @ if st.torn_writes then List.init st.nsites (fun s -> Tkey.Torn s) else []
      else []
    in
    let enabled = List.map fst moves @ crashes in
    (* Footprints are computed here, where every lane head the sleep
       set refers to is still intact. *)
    let footprints =
      List.map
        (fun k -> (k, footprint st.cl moves k))
        (Tkey.Set.elements (Tkey.Set.union sleep (Tkey.Set.of_list enabled)))
    in
    let footprint_of k =
      snd (List.find (fun (k', _) -> Tkey.compare k k' = 0) footprints)
    in
    if moves = [] then check_terminal st rt (List.rev schedule);
    let sleep = ref sleep in
    List.iter
      (fun key ->
        if st.dpor && Tkey.Set.mem key !sleep then
          st.sleep_skips <- st.sleep_skips + 1
        else begin
          let kfp = footprint_of key in
          let child_sleep =
            if st.dpor then
              Tkey.Set.filter
                (fun s -> IntSet.disjoint (footprint_of s) kfp)
                !sleep
            else Tkey.Set.empty
          in
          let rt = at st schedule in
          let schedule = key :: schedule in
          execute st rt key (List.rev schedule);
          st.transitions <- st.transitions + 1;
          explore st (depth + 1) child_sleep schedule;
          st.live <- None;
          if st.dpor then sleep := Tkey.Set.add key !sleep
        end)
      enabled
  end

let check ?(crash_depth = 0) ?(torn_writes = false) ?(max_states = 500_000)
    ?(dpor = true) ?(guard_overrides = []) ?spec_name wf =
  List.iter
    (fun (task : Workflow_def.task) ->
      if task.parametrize then
        invalid_arg
          ("Mc.check: parametrized (looping) task " ^ task.instance
         ^ " — the checker needs a finite static alphabet"))
    wf.Workflow_def.tasks;
  let st =
    create_state ~dpor ~crash_depth ~torn_writes ~max_states ~guard_overrides wf
  in
  let complete =
    match explore st 0 Tkey.Set.empty [] with
    | () -> true
    | exception Bounded -> false
  in
  {
    r_spec = Option.value spec_name ~default:wf.Workflow_def.name;
    r_mode = (if dpor then "dpor" else "naive");
    r_states = st.states;
    r_transitions = st.transitions;
    r_traces = st.traces;
    r_dedup_hits = st.dedup_hits;
    r_sleep_skips = st.sleep_skips;
    r_max_depth = st.max_depth;
    r_complete = complete;
    r_crash_depth = crash_depth;
    r_recoveries = st.recoveries;
    r_closed_traces = List.rev st.closed_traces;
    r_divergences = List.rev st.divergences;
  }

(* {2 Counterexamples as Wf_obs.Trace JSONL} *)

let records_of_schedule wf schedule =
  List.mapi
    (fun i key ->
      let time = float_of_int i in
      match key with
      | Tkey.Attempt instance ->
          let site =
            match
              List.find_opt
                (fun (task : Workflow_def.task) -> task.instance = instance)
                wf.Workflow_def.tasks
            with
            | Some task -> task.site
            | None -> 0
          in
          Trace_obs.make ~time ~site ~actor:instance
            (Trace_obs.Send { src = site; dst = site; control = false })
      | Tkey.Deliver (src, dst) ->
          let ssite = Workflow_def.site_of wf src in
          let dsite = Workflow_def.site_of wf dst in
          Trace_obs.make ~time ~site:dsite
            ~actor:(Symbol.name src ^ ">" ^ Symbol.name dst)
            (Trace_obs.Deliver { src = ssite; dst = dsite })
      | Tkey.Crash site -> Trace_obs.make ~time ~site Trace_obs.Crash
      | Tkey.Torn site ->
          Trace_obs.make ~time ~site ~actor:"torn" Trace_obs.Crash)
    schedule

let write_counterexample wf div path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Trace_obs.write_jsonl oc (records_of_schedule wf div.d_schedule))

let load_schedule path =
  let parse_actor_pair actor =
    match String.index_opt actor '>' with
    | Some i ->
        let a = String.sub actor 0 i in
        let b = String.sub actor (i + 1) (String.length actor - i - 1) in
        Some (Symbol.make a, Symbol.make b)
    | None -> None
  in
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec loop lineno acc =
            match input_line ic with
            | exception End_of_file -> Ok (List.rev acc)
            | "" -> loop (lineno + 1) acc
            | line -> (
                match Trace_obs.parse_line line with
                | Error e -> Error (Fmt.str "line %d: %s" lineno e)
                | Ok r -> (
                    match r.Trace_obs.kind with
                    | Trace_obs.Send _ when r.Trace_obs.actor <> "" ->
                        loop (lineno + 1) (Tkey.Attempt r.Trace_obs.actor :: acc)
                    | Trace_obs.Deliver _ -> (
                        match parse_actor_pair r.Trace_obs.actor with
                        | Some (a, b) ->
                            loop (lineno + 1) (Tkey.Deliver (a, b) :: acc)
                        | None ->
                            Error
                              (Fmt.str
                                 "line %d: deliver record without a \
                                  sender>receiver actor"
                                 lineno))
                    | Trace_obs.Crash when r.Trace_obs.actor = "torn" ->
                        loop (lineno + 1) (Tkey.Torn r.Trace_obs.site :: acc)
                    | Trace_obs.Crash ->
                        loop (lineno + 1) (Tkey.Crash r.Trace_obs.site :: acc)
                    | Trace_obs.Restart -> loop (lineno + 1) acc
                    | _ ->
                        Error
                          (Fmt.str "line %d: unexpected %s record" lineno
                             (Trace_obs.kind_name r))))
          in
          loop 1 [])

let replay ?(guard_overrides = []) wf schedule =
  (* Replay follows one schedule: every torn placement probed, no
     state bound. *)
  let st =
    create_state ~dpor:false ~crash_depth:0 ~torn_writes:true
      ~max_states:max_int ~guard_overrides wf
  in
  let rt = fresh ~guard_overrides st.wf st.plan in
  let rec apply i = function
    | [] -> Ok ()
    | key :: rest -> (
        let enabled =
          match key with
          | Tkey.Attempt _ | Tkey.Deliver _ ->
              List.exists (performs rt key) (Netsim.choices rt.net)
          | Tkey.Crash s | Tkey.Torn s -> s >= 0 && s < st.nsites
        in
        if not enabled then
          Error
            (Fmt.str "step %d: %s is not enabled" i (Tkey.to_string key))
        else
          match execute st rt key (List.filteri (fun j _ -> j <= i) schedule) with
          | () -> apply (i + 1) rest
          | exception exn ->
              Error (Fmt.str "step %d: %s" i (Printexc.to_string exn)))
  in
  match apply 0 schedule with
  | Error _ as e -> e
  | Ok () ->
      Ground.close rt;
      Ok (List.rev st.divergences @ closed_divergences st rt schedule, trace rt)

module For_testing = struct
  let start = start
  let moves = moves
  let perform = perform
  let fingerprint = fingerprint
end
