open Wf_core

type outcome =
  | Accepted
  | Parked
  | Rejected
  | Already
  | Busy of { retry_after : float }

(* Journaled inputs and checkpointed state: the engine's evolution is a
   deterministic function of the attempt/occurrence sequence, so a
   write-ahead log of inputs plus periodic snapshots reconstructs it
   exactly after a crash (templates are re-synthesized from the
   dependency list, not journaled). *)
type input = P_attempt of Symbol.t | P_occurred of Literal.t

type snapshot = {
  s_know : Knowledge.t;
  s_seqno : int;
  s_occurrences : Literal.t list;
  s_parked_syms : Symbol.t list;
}

(* Binary codec for the engine's durable journal (threaded through
   {!recover} whenever the journal is backed by simulated storage). *)
module B = Wf_store.Binio

let put_input buf = function
  | P_attempt sym ->
      B.put_uint buf 0;
      Wire.put_symbol buf sym
  | P_occurred lit ->
      B.put_uint buf 1;
      Wire.put_literal buf lit

let get_input r =
  match B.get_uint r with
  | 0 -> P_attempt (Wire.get_symbol r)
  | 1 -> P_occurred (Wire.get_literal r)
  | n -> raise (B.Corrupt (Printf.sprintf "unknown param input tag %d" n))

let put_snapshot buf s =
  Wire.put_knowledge buf s.s_know;
  B.put_int buf s.s_seqno;
  B.put_list Wire.put_literal buf s.s_occurrences;
  B.put_list Wire.put_symbol buf s.s_parked_syms

let get_snapshot r =
  let s_know = Wire.get_knowledge r in
  let s_seqno = B.get_int r in
  let s_occurrences = B.get_list Wire.get_literal r in
  let s_parked_syms = B.get_list Wire.get_symbol r in
  { s_know; s_seqno; s_occurrences; s_parked_syms }

let codec : (input, snapshot) Wf_store.Log.codec =
  {
    enc_entry = B.encode put_input;
    dec_entry = B.decode get_input;
    enc_ckpt = B.encode put_snapshot;
    dec_ckpt = B.decode get_snapshot;
  }

(* One matching positive template of an attempt, substituted once when
   the attempt is made.  A closed instance (no free variable left after
   binding) reads the knowledge only at its own symbols, so its status
   is a function of their fates: the last evaluation's status is cached
   under the fate vector it read, and reused while the vector holds.  An
   open instance quantifies over the global token set and is evaluated
   afresh every time; only its substitution is kept. *)
type instance = {
  guard : Guard.t; (* the template with the attempt's bindings substituted *)
  syms : Symbol.t array; (* [Guard.symbols guard] *)
  free : string list; (* variables left unbound; [] = closed *)
  key : Knowledge.fate option array;
      (* closed: the fates of [syms] at the last evaluation *)
  mutable status : Knowledge.status; (* closed: that evaluation's result *)
  mutable evaluated : bool; (* closed: [key] and [status] are filled *)
}

(* An attempt and its instances.  A parked entry carries its cache for
   as long as the attempt stays in the backlog; the cache is derived
   state, never snapshotted or compared. *)
type entry = { sym : Symbol.t; insts : instance array }

type t = {
  deps : Ptemplate.t list;
  templates : (int * Ptemplate.atom * Guard.t) list;
  journal : (input, snapshot) Wf_store.Journal.t;
  media : Wf_store.Media.Sim.sim option;
      (* simulated storage under the journal; [None] = perfectly
         durable in-memory journal *)
  mutable last_salvage : Wf_store.Log.salvage_report option;
  mutable know : Knowledge.t;
  mutable seqno : int;
  mutable occurrences : Literal.t list; (* newest first *)
  mutable parked : entry list; (* newest first *)
  mutable parked_n : int;
      (* |parked|, maintained incrementally: the admission gate
         reads the backlog depth on every attempt and the retry loop
         checks progress on every pass, so a [List.length] there is a
         full traversal per event — O(p) per input at fleet scale *)
  tracer : Wf_obs.Trace.sink option ref;
      (* a ref shared with the flow controller's closure (and carried
         across {!recover}), so retargeting the sink retargets both *)
  tick : int ref;
      (* logical time for trace records: the engine has no simulated
         clock, so records are stamped with the input count; a shared
         ref for the same reason as [tracer] *)
  fstats : Wf_obs.Metrics.t;
      (* registry for the flow controller's [flow_*] counters — the
         engine itself has none *)
  flow : Flow.t option;
      (* admission control over the parked backlog; [None] = every
         attempt admitted (historical behavior) *)
  mutable work : int;
      (* cumulative decisions (attempt decides + parked re-decides, cache
         hits included): the engine's unit of work, exposed so open-loop
         drivers can charge a virtual service cost that grows with the
         parked backlog *)
  mutable evaluations : int;
      (* instance evaluations the decisions actually ran (cache misses
         and open instances) *)
  token_set : (string, unit) Hashtbl.t;
      (* distinct non-marker tokens across recorded occurrences — the
         instance-enumeration universe.  Maintained incrementally by
         [record] (rebuilt on snapshot restore) so [known_values] and
         the fresh-token check on every [occurred] cost O(1)/O(arity)
         instead of O(knowledge symbols × tokens), which would make a
         fleet of n bindings O(n^2) just to notice each token is new. *)
  mutable token_list : string list; (* same tokens, newest first *)
}

let fresh_marker = "*"

let create ?(checkpoint_every = 32) ?store ?(store_seed = 1L) ?flow deps =
  let templates =
    List.concat
      (List.mapi
         (fun i dep ->
           let skel = Ptemplate.skeleton dep in
           List.map
             (fun (a : Ptemplate.atom) ->
               let lit : Literal.t =
                 {
                   Literal.sym = Ptemplate.symbol_of_atom Ptemplate.var_marker a;
                   pol = a.Ptemplate.pol;
                 }
               in
               (i, a, Synth.guard skel lit))
             (Ptemplate.atoms dep))
         deps)
  in
  let media =
    Option.map
      (fun faults -> Wf_store.Media.Sim.create ~faults ~seed:store_seed ())
      store
  in
  let journal = Wf_store.Journal.create ~checkpoint_every () in
  (match media with
  | None -> ()
  | Some m ->
      Wf_store.Journal.attach journal
        (Wf_store.Log.create codec (Wf_store.Media.Sim.device m)));
  let tracer = ref None in
  let tick = ref 0 in
  let fstats = Wf_obs.Metrics.create () in
  let flow =
    Option.map
      (fun cfg ->
        Flow.create ~config:cfg ~num_sites:1
          ~seed:(Int64.logxor store_seed 0x466C4F57L)
          ~stats:fstats
          ~now:(fun () -> float_of_int !tick)
          ~tracer:(fun () -> !tracer)
          ())
      flow
  in
  {
    deps;
    templates;
    journal;
    media;
    last_salvage = None;
    know = Knowledge.empty;
    seqno = 0;
    occurrences = [];
    parked = [];
    parked_n = 0;
    tracer;
    tick;
    fstats;
    flow;
    work = 0;
    evaluations = 0;
    token_set = Hashtbl.create 64;
    token_list = [];
  }

(* --- variable handling on marked symbols -------------------------------- *)

let is_marker arg = String.length arg > 1 && arg.[0] = '?'
let marker_var arg = String.sub arg 1 (String.length arg - 1)

let subst_symbol bindings sym =
  let args =
    List.map
      (fun arg ->
        if is_marker arg then
          match List.assoc_opt (marker_var arg) bindings with
          | Some v -> v
          | None -> arg
        else arg)
      (Symbol.args sym)
  in
  match args with
  | [] -> sym
  | args -> Symbol.parametrized (Symbol.base sym) args

let subst bindings g = Guard.map_symbols (subst_symbol bindings) g

let free_vars syms =
  Array.fold_left
    (fun acc sym ->
      List.fold_left
        (fun acc arg ->
          if is_marker arg && not (List.mem (marker_var arg) acc) then
            marker_var arg :: acc
          else acc)
        acc (Symbol.args sym))
    [] syms

let has_fresh_arg sym = List.exists (String.equal fresh_marker) (Symbol.args sym)

(* --- evaluation ---------------------------------------------------------- *)

let undecided_symbols know g =
  Symbol.Set.filter
    (fun sym -> not (Knowledge.decided know sym))
    (Guard.symbols g)

(* A ground, active (or bound) instance: undecided symbols are known to
   be undecided right now — the engine is the single arbiter.  Ground
   instances have a closed alphabet, so the compiled residuation table
   may short-circuit the evaluation; [Open] (and fresh instances below,
   whose alphabet grows with unseen tokens) stay on the symbolic leg.
   Every read of [know] is at a symbol of [g]: [Knowledge.status]
   evaluates [g]'s own constraints, the table's alphabet is
   [Guard.symbols g], and the reserved set is its undecided subset. *)
let eval_active know g =
  match Gtable.status_hint g know with
  | Some s -> s
  | None -> Knowledge.status ~reserved:(undecided_symbols know g) know g

(* A fresh instance: its never-seen tokens will never occur. *)
let eval_fresh know g =
  let undecided = undecided_symbols know g in
  let never = Symbol.Set.filter has_fresh_arg undecided in
  let reserved = Symbol.Set.diff undecided never in
  Knowledge.status ~reserved ~never know g

let combine a b =
  match (a, b) with
  | Knowledge.False, _ | _, Knowledge.False -> Knowledge.False
  | Knowledge.True, Knowledge.True -> Knowledge.True
  | _ -> Knowledge.Unknown

let note_tokens t sym =
  List.iter
    (fun arg ->
      if (not (is_marker arg)) && not (Hashtbl.mem t.token_set arg) then begin
        Hashtbl.add t.token_set arg ();
        t.token_list <- arg :: t.token_list
      end)
    (Symbol.args sym)

let rebuild_tokens t =
  Hashtbl.reset t.token_set;
  t.token_list <- [];
  List.iter (note_tokens t) (Knowledge.symbols t.know)

let known_values t = t.token_list

let rec combos vars values =
  match vars with
  | [] -> [ [] ]
  | v :: rest ->
      let smaller = combos rest values in
      List.concat_map
        (fun value -> List.map (fun c -> (v, value) :: c) smaller)
        values

let active know g =
  Symbol.Set.exists (Knowledge.decided know) (Guard.symbols g)

let instance template bound =
  let guard = subst bound template in
  let syms = Array.of_list (Symbol.Set.elements (Guard.symbols guard)) in
  let free = free_vars syms in
  let key =
    match free with [] -> Array.make (Array.length syms) None | _ -> [||]
  in
  { guard; syms; free; key; status = Knowledge.Unknown; evaluated = false }

(* One instance under [know], uncached: closed instances evaluate
   directly; open ones quantify their free variables over the seen
   tokens plus a generic fresh one. *)
let evaluate t know inst =
  match inst.free with
  | [] -> eval_active know inst.guard
  | free ->
      let g0 = inst.guard in
      let status_of_combo acc combo =
        let g1 = subst combo g0 in
        (* Instances none of whose events have occurred are subsumed by
           the generic fresh instance. *)
        if active know g1 then combine acc (eval_active know g1) else acc
      in
      let seen_part =
        List.fold_left status_of_combo Knowledge.True
          (combos free (known_values t))
      in
      let fresh_bindings = List.map (fun v -> (v, fresh_marker)) free in
      combine seen_part (eval_fresh know (subst fresh_bindings g0))

let instance_status t template ~bound =
  evaluate t t.know (instance template bound)

(* Polarities are immediates, so [==] is their equality. *)
let same_fate a b =
  match (a, b) with
  | None, None -> true
  | Some (Knowledge.Occurred (p, m)), Some (Knowledge.Occurred (q, n)) ->
      p == q && Int.equal m n
  | Some (Knowledge.Promised p), Some (Knowledge.Promised q) -> p == q
  | _ -> false

(* A closed instance's status is a function of the fates of its own
   symbols (see [eval_active]) — seqnos included, as pending terms are
   order-sensitive — so the cached status holds under any knowledge that
   agrees with [key] at [syms]. *)
let cached know inst =
  inst.evaluated
  &&
  let n = Array.length inst.syms in
  let rec holds i =
    i = n
    || same_fate inst.key.(i) (Knowledge.fate_of know inst.syms.(i))
       && holds (i + 1)
  in
  holds 0

let instance_decision t inst =
  if cached t.know inst then inst.status
  else begin
    t.evaluations <- t.evaluations + 1;
    let s = evaluate t t.know inst in
    (match inst.free with
    | [] ->
        Array.iteri
          (fun i sym -> inst.key.(i) <- Knowledge.fate_of t.know sym)
          inst.syms;
        inst.status <- s;
        inst.evaluated <- true
    | _ :: _ -> () (* open: depends on the token set, never cached *));
    s
  end

(* The attempt's instances: one per matching positive template, in
   template order. *)
let entry_of t sym =
  {
    sym;
    insts =
      Array.of_list
        (List.filter_map
           (fun (_, atom, template) ->
             if atom.Ptemplate.pol <> Literal.Pos then None
             else
               Option.map (instance template)
                 (Ptemplate.match_symbol atom sym))
           t.templates);
  }

(* --- tracing ------------------------------------------------------------- *)

let set_tracer t sink = t.tracer := sink

(* The guard id of a decision about an attempt: the interned id of its
   first instance's guard (the first matching positive template).  Only
   computed (and only interned) when a sink is listening. *)
let emit_assim t e outcome =
  match !(t.tracer) with
  | None -> ()
  | Some sink ->
      let guard =
        if Array.length e.insts = 0 then -1 else Guard.uid e.insts.(0).guard
      in
      Wf_obs.Trace.emit sink
        (Wf_obs.Trace.make
           ~time:(float_of_int !(t.tick))
           ~site:0 ~actor:(Symbol.name e.sym)
           (Wf_obs.Trace.Assim { outcome; guard }))

(* --- the engine ---------------------------------------------------------- *)

(* Every decision counts as work, cache hits included: open-loop drivers
   charge virtual service time by [work]. *)
let decide t e =
  t.work <- t.work + 1;
  Array.fold_left
    (fun acc inst -> combine acc (instance_decision t inst))
    Knowledge.True e.insts

let record t lit =
  t.seqno <- t.seqno + 1;
  t.know <- Knowledge.occurred lit ~seqno:t.seqno t.know;
  t.occurrences <- lit :: t.occurrences;
  note_tokens t (Literal.symbol lit)

(* Can news about [base] change [decide t e]?  Every knowledge lookup of
   the decision is at a symbol of one of [e]'s instances (or, for an open
   instance, at an instantiation of one — same base), so an occurrence
   with an unrelated base leaves the decision as it was.  (Occurrences
   introducing a never-seen token are excluded by the caller: a fresh
   token enlarges the enumerated instance combos themselves.) *)
let watches e base =
  Array.exists
    (fun inst ->
      Array.exists (fun sym -> String.equal (Symbol.base sym) base) inst.syms)
    e.insts

let rec retry_parked ?touched t =
  let parked = t.parked in
  let taken = t.parked_n in
  t.parked <- [];
  t.parked_n <- 0;
  let kept = ref 0 in
  let still =
    List.filter
      (fun e ->
        let keep =
          if Knowledge.decided t.know e.sym then false
          else if
            match touched with
            | Some base -> not (watches e base)
            | None -> false
          then true (* unaffected: stays parked without re-deciding *)
          else
            match decide t e with
            | Knowledge.True ->
                emit_assim t e Wf_obs.Trace.Enabled;
                record t (Literal.pos e.sym);
                false
            | Knowledge.False | Knowledge.Unknown ->
                emit_assim t e Wf_obs.Trace.Reduced;
                true
        in
        if keep then incr kept;
        keep)
      parked
  in
  t.parked <- still @ t.parked;
  t.parked_n <- t.parked_n + !kept;
  if !kept < taken then retry_parked t

let apply_attempt t sym =
  if Knowledge.decided t.know sym then Already
  else
    let e = entry_of t sym in
    match decide t e with
    | Knowledge.True ->
        emit_assim t e Wf_obs.Trace.Enabled;
        record t (Literal.pos sym);
        retry_parked t;
        Accepted
    | Knowledge.False ->
        emit_assim t e Wf_obs.Trace.Rejected;
        Rejected
    | Knowledge.Unknown ->
        emit_assim t e Wf_obs.Trace.Parked;
        if not (List.exists (fun p -> Symbol.equal sym p.sym) t.parked) then begin
          t.parked <- e :: t.parked;
          t.parked_n <- t.parked_n + 1
        end;
        Parked

let apply_occurred t lit =
  if not (Knowledge.decided t.know (Literal.symbol lit)) then begin
    let sym = Literal.symbol lit in
    (* A token never seen before enlarges the instance enumeration for
       every template with free variables, so only gate the retry when
       all of the occurrence's tokens are already known. *)
    let fresh_token =
      List.exists
        (fun arg -> (not (is_marker arg)) && not (Hashtbl.mem t.token_set arg))
        (Symbol.args sym)
    in
    record t lit;
    if fresh_token then retry_parked t
    else retry_parked ~touched:(Symbol.base sym) t
  end

(* --- crash recovery ------------------------------------------------------ *)

let parked t = List.map (fun e -> e.sym) t.parked

let snapshot t =
  {
    s_know = t.know;
    s_seqno = t.seqno;
    s_occurrences = t.occurrences;
    s_parked_syms = parked t;
  }

let restore t s =
  t.know <- s.s_know;
  t.seqno <- s.s_seqno;
  t.occurrences <- s.s_occurrences;
  (* the instance caches are derived: restored entries start empty *)
  t.parked <- List.map (entry_of t) s.s_parked_syms;
  t.parked_n <- List.length s.s_parked_syms;
  rebuild_tokens t

let maybe_checkpoint t =
  if Wf_store.Journal.wants_checkpoint t.journal then
    Wf_store.Journal.checkpoint t.journal (snapshot t)

(* Admission gate over the parked backlog.  A shed attempt is refused
   before it is journaled: it is not an input, so replay after a crash
   sees exactly the admitted sequence. *)
let admit_gate t sym =
  match t.flow with
  | None -> None
  | Some fl -> (
      match
        Flow.admit fl ~site:0 ~actor:(Symbol.name sym)
          ~depth:t.parked_n
          ~first:(float_of_int !(t.tick))
          ()
      with
      | Flow.Admitted -> None
      | Flow.Busy { retry_after } -> Some retry_after)

let attempt t sym =
  match admit_gate t sym with
  | Some retry_after -> Busy { retry_after }
  | None ->
      Wf_store.Journal.append t.journal (P_attempt sym);
      incr t.tick;
      let out = apply_attempt t sym in
      maybe_checkpoint t;
      out

let occurred t lit =
  Wf_store.Journal.append t.journal (P_occurred lit);
  incr t.tick;
  apply_occurred t lit;
  maybe_checkpoint t

let recover t =
  (* With simulated storage, the crash first damages the media, and the
     journal is rebuilt from the salvage scan — the in-memory mirror is
     volatile and died with the engine. *)
  let journal, salvage =
    match t.media with
    | None -> (t.journal, None)
    | Some m ->
        Wf_store.Media.Sim.crash m;
        let j', report =
          Wf_store.Journal.reload
            ~checkpoint_every:(Wf_store.Journal.checkpoint_interval t.journal)
            codec
            (Wf_store.Media.Sim.device m)
        in
        (j', Some report)
  in
  (* The shared [tracer] and [tick] refs (and the flow controller whose
     closures capture them) carry over, so the fresh engine keeps the
     sink, the logical clock, and the admission state. *)
  let fresh =
    {
      (create t.deps) with
      journal;
      media = t.media;
      tracer = t.tracer;
      tick = t.tick;
      fstats = t.fstats;
      flow = t.flow;
      work = t.work;
      evaluations = t.evaluations;
    }
  in
  fresh.last_salvage <-
    (match salvage with None -> t.last_salvage | some -> some);
  (match (salvage, !(t.tracer)) with
  | Some report, Some sink ->
      Wf_obs.Trace.emit sink
        (Wf_obs.Trace.make
           ~time:(float_of_int !(t.tick))
           ~site:0
           (Wf_obs.Trace.Store_salvage
              {
                kept = report.Wf_store.Log.sr_frames;
                dropped = report.Wf_store.Log.sr_dropped_bytes;
                fallback = report.Wf_store.Log.sr_ckpt = Wf_store.Log.Fallback;
              }))
  | _ -> ());
  (* replay is silent: the shared sink is unhooked for its duration, so
     re-applied inputs do not re-emit decisions the pre-crash engine
     traced *)
  let saved = !(t.tracer) in
  t.tracer := None;
  let ckpt, suffix = Wf_store.Journal.recover journal in
  (match ckpt with Some s -> restore fresh s | None -> ());
  List.iter
    (function
      | P_attempt sym -> ignore (apply_attempt fresh sym)
      | P_occurred lit -> apply_occurred fresh lit)
    suffix;
  t.tracer := saved;
  fresh

let equal_state a b =
  Knowledge.equal a.know b.know
  && Int.equal a.seqno b.seqno
  && List.equal Literal.equal a.occurrences b.occurrences
  && List.equal (fun x y -> Symbol.equal x.sym y.sym) a.parked b.parked

let parked_count t = t.parked_n
let trace t = List.rev t.occurrences
let knowledge t = t.know
let guard_templates t = t.templates
let stats t = t.fstats
let work t = t.work
let evaluations t = t.evaluations

let cached_decision ?know t sym =
  let know = Option.value know ~default:t.know in
  match List.find_opt (fun e -> Symbol.equal e.sym sym) t.parked with
  | None -> None
  | Some e ->
      if Array.for_all (cached know) e.insts then
        Some
          (Array.fold_left
             (fun acc inst -> combine acc inst.status)
             Knowledge.True e.insts)
      else None

let last_salvage t = t.last_salvage
