open Wf_core
open Wf_tasks
module Step = Wf_scheduler.Step_sched
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

(* The footprint of a transition, as a set of coupling classes.  For a
   delivery the payload matters: the head message is inspected at call
   time, which is safe for sleep-set members too — no other transition
   can pop (only append to) that queue, so the head is stable while the
   key sits in a sleep set. *)
let footprint cl t key =
  match key with
  | Tkey.Attempt instance ->
      Option.value
        (Hashtbl.find_opt cl.by_instance instance)
        ~default:IntSet.empty
  | Tkey.Deliver (src, dst) ->
      let base = classes_of cl [ src; dst ] in
      let payload =
        match Step.queue_head t (src, dst) with
        | Some msg -> classes_of cl (Messages.symbols msg)
        | None -> IntSet.empty
      in
      IntSet.union base payload
  | Tkey.Crash site | Tkey.Torn site ->
      Option.value (Hashtbl.find_opt cl.by_site site) ~default:IntSet.empty

(* {2 The DFS} *)

type state = {
  sched : Step.t;
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
  mutable closed_traces : Literal.t list list; (* newest first *)
  mutable divergences : divergence list; (* newest first, capped *)
  mutable states : int;
  mutable transitions : int;
  mutable traces : int;
  mutable dedup_hits : int;
  mutable sleep_skips : int;
  mutable max_depth : int;
}

let create_state ~dpor ~crash_depth ~torn_writes ~max_states ~guard_overrides
    wf =
  let sched = Step.build ~guard_overrides wf in
  let deps = Workflow_def.dependencies wf in
  {
    sched;
    cl = build_classes wf;
    deps;
    alphabet =
      List.fold_left
        (fun acc s -> Symbol.Set.add s acc)
        Symbol.Set.empty (Step.symbols sched);
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
    closed_traces = [];
    divergences = [];
    states = 0;
    transitions = 0;
    traces = 0;
    dedup_hits = 0;
    sleep_skips = 0;
    max_depth = 0;
  }

exception Bounded

let max_divergences = 16

(* A torn crash whose salvage diverges is recorded immediately — the
   defect is in the storage layer, not in the closed trace, so it must
   not wait for (or depend on) the terminal-state oracle. *)
let store_divergence st site schedule =
  if List.length st.divergences < max_divergences then
    st.divergences <-
      {
        d_kind = "store";
        d_detail =
          Fmt.str
            "torn-write salvage diverged from journal recovery at site %d"
            site;
        d_schedule = schedule;
        d_trace = Step.trace st.sched;
      }
      :: st.divergences

let execute st key schedule =
  match key with
  | Tkey.Attempt i -> Step.do_attempt st.sched i
  | Tkey.Deliver (a, b) -> Step.do_deliver st.sched (a, b)
  | Tkey.Crash s -> Step.do_crash st.sched s
  | Tkey.Torn s ->
      if not (Step.do_crash_torn st.sched s) then store_divergence st s schedule

let trace_fp tr =
  let module F = Fingerprint in
  List.fold_left
    (fun h (l : Literal.t) ->
      F.int (F.string h (Symbol.name l.Literal.sym))
        (match l.Literal.pol with Literal.Pos -> 1 | Literal.Neg -> 2))
    F.init tr

(* The oracle, run on a closed (drained + deterministically closed)
   state: the realized trace must be a well-formed maximal trace that
   every dependency accepts, that the workflow generates (Definition 4),
   and whose per-dependency projections lie in the dependencies'
   maximal denotations; and no guard decision may have been forced
   through or violated by an uncontrollable event along the way. *)
let closed_divergences st schedule =
  let t = st.sched in
  let tr = Step.trace t in
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
        (Fmt.str "generates=%b but satisfies_all=%b on %a" gen sat Trace.pp tr);
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
  if Step.forced t > 0 then
    add "forced" (Fmt.str "%d guard decisions forced through" (Step.forced t));
  if Step.uncontrollable t > 0 then
    add "uncontrollable"
      (Fmt.str "%d uncontrollable events fired against a False guard"
         (Step.uncontrollable t));
  List.rev !divs

let check_terminal st schedule =
  st.traces <- st.traces + 1;
  let snap = Step.snapshot st.sched in
  Step.run_closing st.sched;
  let tr = Step.trace st.sched in
  let fp = trace_fp tr in
  if not (Hashtbl.mem st.seen_traces fp) then begin
    Hashtbl.replace st.seen_traces fp ();
    st.closed_traces <- tr :: st.closed_traces
  end;
  if List.length st.divergences < max_divergences then
    st.divergences <- List.rev_append (closed_divergences st schedule) st.divergences;
  Step.restore st.sched snap

let enabled_transitions st =
  let t = st.sched in
  let attempts =
    List.map (fun i -> Tkey.Attempt i) (Step.enabled_attempts t)
  in
  let delivers =
    List.map (fun (a, b) -> Tkey.Deliver (a, b)) (Step.nonempty_queues t)
  in
  let crashes =
    if Step.crashes_used t < st.crash_depth then begin
      let plain = List.init (Step.num_sites t) (fun s -> Tkey.Crash s) in
      if st.torn_writes then
        plain @ List.init (Step.num_sites t) (fun s -> Tkey.Torn s)
      else plain
    end
    else []
  in
  (attempts, delivers, crashes)

let rec explore st depth sleep schedule =
  st.states <- st.states + 1;
  if st.states > st.max_states then raise Bounded;
  if depth > st.max_depth then st.max_depth <- depth;
  let fp = Step.fingerprint st.sched in
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
    let attempts, delivers, crashes = enabled_transitions st in
    if attempts = [] && delivers = [] then check_terminal st (List.rev schedule);
    let enabled = attempts @ delivers @ crashes in
    if enabled <> [] then begin
      let snap = Step.snapshot st.sched in
      let sleep = ref sleep in
      List.iter
        (fun key ->
          if st.dpor && Tkey.Set.mem key !sleep then
            st.sleep_skips <- st.sleep_skips + 1
          else begin
            (* Footprints are computed in the parent state, where every
               queue head the sleep set refers to is still intact. *)
            let kfp = footprint st.cl st.sched key in
            let child_sleep =
              if st.dpor then
                Tkey.Set.filter
                  (fun s ->
                    IntSet.disjoint (footprint st.cl st.sched s) kfp)
                  !sleep
              else Tkey.Set.empty
            in
            execute st key (List.rev (key :: schedule));
            st.transitions <- st.transitions + 1;
            explore st (depth + 1) child_sleep (key :: schedule);
            Step.restore st.sched snap;
            if st.dpor then sleep := Tkey.Set.add key !sleep
          end)
        enabled
    end
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
    r_recoveries = Wf_obs.Metrics.count (Step.stats st.sched) "actor_recoveries";
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
  (* Replay follows one schedule: no reduction, every torn placement
     probed, no state bound. *)
  let st =
    create_state ~dpor:false ~crash_depth:0 ~torn_writes:true
      ~max_states:max_int ~guard_overrides wf
  in
  let sched = st.sched in
  let rec apply i = function
    | [] -> Ok ()
    | key :: rest -> (
        let enabled =
          match key with
          | Tkey.Attempt instance ->
              List.mem instance (Step.enabled_attempts sched)
          | Tkey.Deliver (a, b) -> Step.queue_head sched (a, b) <> None
          | Tkey.Crash s | Tkey.Torn s -> s >= 0 && s < Step.num_sites sched
        in
        if not enabled then
          Error
            (Fmt.str "step %d: %s is not enabled" i (Tkey.to_string key))
        else
          match execute st key (List.filteri (fun j _ -> j <= i) schedule) with
          | () -> apply (i + 1) rest
          | exception exn ->
              Error (Fmt.str "step %d: %s" i (Printexc.to_string exn)))
  in
  match apply 0 schedule with
  | Error _ as e -> e
  | Ok () ->
      Step.run_closing sched;
      Ok
        ( List.rev st.divergences @ closed_divergences st schedule,
          Step.trace sched )
