open Wf_core

type outcome = Param_engine.outcome =
  | Accepted
  | Parked
  | Rejected
  | Already
  | Busy of { retry_after : float }

let combine = Param_engine.combine
let is_marker = Param_engine.is_marker
let fresh_marker = Param_engine.fresh_marker

(* --- variable handling on marked symbols -------------------------------- *)

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

(* A ground, active (or bound) instance of an open template's
   enumeration: undecided symbols are known to be undecided right now —
   the engine is the single arbiter — so they are all reserved.  Every
   read of [know] is at a symbol of [g]. *)
let eval_active know g =
  Knowledge.status ~reserved:(undecided_symbols know g) know g

(* A fresh instance: its never-seen tokens will never occur. *)
let eval_fresh know g =
  let undecided = undecided_symbols know g in
  let never = Symbol.Set.filter has_fresh_arg undecided in
  let reserved = Symbol.Set.diff undecided never in
  Knowledge.status ~reserved ~never know g

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

(* A symbol's fate, mirrored from the knowledge: [Knowledge.fate_of]
   at the symbol.  The core resolves each symbol it decides about to one
   cell, shared by every instance and entry that mentions the symbol, so
   the hot reads (cache keys, parked and decided tests) are a field load
   instead of a probe of the knowledge map. *)
type cell = { mutable fate : Knowledge.fate option }

let cell_decided c =
  match c.fate with Some (Knowledge.Occurred _) -> true | _ -> false

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
  cells : cell array; (* closed: the fate cells of [syms] *)
  key : Knowledge.fate option array;
      (* closed: the fates of [syms] at the last evaluation *)
  mutable status : Knowledge.status; (* closed: that evaluation's result *)
  mutable evaluated : bool; (* closed: [key] and [status] are filled *)
}

let instance cell_of template bound =
  let guard = subst bound template in
  let syms = Array.of_list (Symbol.Set.elements (Guard.symbols guard)) in
  let free = free_vars syms in
  let cells, key =
    match free with
    | [] -> (Array.map cell_of syms, Array.make (Array.length syms) None)
    | _ -> ([||], [||])
  in
  {
    guard;
    syms;
    free;
    cells;
    key;
    status = Knowledge.Unknown;
    evaluated = false;
  }

(* A closed instance evaluated directly on the knowledge, with its
   undecided symbols reserved as in [eval_active]; the reserved set is
   read off the cells. *)
let eval_closed know inst =
  let reserved = ref Symbol.Set.empty in
  Array.iteri
    (fun i c ->
      if not (cell_decided c) then
        reserved := Symbol.Set.add inst.syms.(i) !reserved)
    inst.cells;
  Knowledge.status ~reserved:!reserved know inst.guard

(* Polarities are immediates, so [==] is their equality. *)
let same_fate a b =
  match (a, b) with
  | None, None -> true
  | Some (Knowledge.Occurred (p, m)), Some (Knowledge.Occurred (q, n)) ->
      p == q && Int.equal m n
  | Some (Knowledge.Promised p), Some (Knowledge.Promised q) -> p == q
  | _ -> false

(* A closed instance's status is a function of the fates of its own
   symbols — seqnos included, as pending terms are order-sensitive — so
   the cached status holds under any knowledge that agrees with [key] at
   [syms].  [fate inst i] is the current fate of [inst.syms.(i)]. *)
let cached_under fate inst =
  inst.evaluated
  &&
  let n = Array.length inst.syms in
  let rec holds i =
    i = n || (same_fate inst.key.(i) (fate inst i) && holds (i + 1))
  in
  holds 0

let cell_fate inst i = inst.cells.(i).fate
let cached inst = cached_under cell_fate inst

(* An attempt and its instances.  A parked entry carries its cache for
   as long as the attempt stays in the backlog; the cache is derived
   state, never snapshotted or compared. *)
type entry = {
  sym : Symbol.t;
  cell : cell; (* [sym]'s *)
  insts : instance array;
}

(* --- the engine core ------------------------------------------------------ *)

(* Checkpointed state; templates are re-synthesized on recovery. *)
type snapshot = {
  s_know : Knowledge.t;
  s_seqno : int;
  s_occurrences : Literal.t list;
  s_parked_syms : Symbol.t list;
}

module Core = struct
  type nonrec snapshot = snapshot

  let snapshot_codec =
    Wf_store.Binio.(
      map
        (fun ((s_know, s_seqno), (s_occurrences, s_parked_syms)) ->
          { s_know; s_seqno; s_occurrences; s_parked_syms })
        (fun s -> ((s.s_know, s.s_seqno), (s.s_occurrences, s.s_parked_syms)))
        (pair (pair Wire.knowledge int)
           (pair (list Wire.literal) (list Wire.symbol))))

  type t = {
    env : Param_engine.env;
    templates : (int * Ptemplate.atom * Guard.t) list;
    mutable know : Knowledge.t;
    mutable seqno : int;
    mutable occurrences : Literal.t list; (* newest first *)
    mutable parked : entry list; (* newest first *)
    mutable parked_n : int;
        (* |parked|, maintained incrementally: the admission gate
           reads the backlog depth on every attempt and the retry loop
           checks progress on every pass, so a [List.length] there is a
           full traversal per event — O(p) per input at fleet scale *)
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
    cells : cell Symbol_tbl.t;
        (* the fate cells resolved so far; each equals [Knowledge.fate_of
           know] at its symbol.  [record] updates them; [restore] drops
           them and they are re-resolved from the restored knowledge as
           entries are rebuilt. *)
  }

  let checkpoint_every = 32

  let create env _deps templates =
    {
      env;
      templates;
      know = Knowledge.empty;
      seqno = 0;
      occurrences = [];
      parked = [];
      parked_n = 0;
      evaluations = 0;
      token_set = Hashtbl.create 64;
      token_list = [];
      cells = Symbol_tbl.create 64;
    }

  let carry ~from t = t.evaluations <- from.evaluations

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

  (* [sym]'s fate cell, resolved from the knowledge on first use. *)
  let cell t sym =
    match Symbol_tbl.find_opt t.cells sym with
    | Some c -> c
    | None ->
        let c = { fate = Knowledge.fate_of t.know sym } in
        Symbol_tbl.add t.cells sym c;
        c

  (* One instance, uncached: closed instances evaluate directly; open
     ones quantify their free variables over the seen tokens plus a
     generic fresh one. *)
  let evaluate t inst =
    let know = t.know in
    match inst.free with
    | [] -> eval_closed know inst
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

  let instance_decision t inst =
    if cached inst then inst.status
    else begin
      t.evaluations <- t.evaluations + 1;
      let s = evaluate t inst in
      (match inst.free with
      | [] ->
          Array.iteri (fun i c -> inst.key.(i) <- c.fate) inst.cells;
          inst.status <- s;
          inst.evaluated <- true
      | _ :: _ -> () (* open: depends on the token set, never cached *));
      s
    end

  (* The attempt's instances: one per matching positive template, in
     template order. *)
  let entry_of t sym c =
    {
      sym;
      cell = c;
      insts =
        Array.of_list
          (List.filter_map
             (fun (_, atom, template) ->
               if atom.Ptemplate.pol <> Literal.Pos then None
               else
                 Option.map (instance (cell t) template)
                   (Ptemplate.match_symbol atom sym))
             t.templates);
    }

  (* The guard id of a decision about an attempt: the interned id of its
     first instance's guard (the first matching positive template).  Only
     computed (and only interned) when a sink is listening. *)
  let emit_assim t e outcome =
    if Param_engine.tracing t.env then
      Param_engine.emit_assim t.env e.sym outcome
        ~guard:
          (if Array.length e.insts = 0 then -1 else Guard.uid e.insts.(0).guard)

  (* Every decision counts as work, cache hits included: open-loop drivers
     charge virtual service time by [work]. *)
  let decide t e =
    t.env.work <- t.env.work + 1;
    Array.fold_left
      (fun acc inst -> combine acc (instance_decision t inst))
      Knowledge.True e.insts

  (* Record [lit] as occurred; [cell] is its symbol's fate cell. *)
  let record t cell lit =
    t.seqno <- t.seqno + 1;
    t.know <- Knowledge.occurred lit ~seqno:t.seqno t.know;
    cell.fate <- Some (Knowledge.Occurred (lit.Literal.pol, t.seqno));
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
            if cell_decided e.cell then false
            else if
              match touched with
              | Some base -> not (watches e base)
              | None -> false
            then true (* unaffected: stays parked without re-deciding *)
            else
              match decide t e with
              | Knowledge.True ->
                  emit_assim t e Wf_obs.Trace.Enabled;
                  record t e.cell (Literal.pos e.sym);
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
    let c = cell t sym in
    if cell_decided c then Already
    else
      let e = entry_of t sym c in
      match decide t e with
      | Knowledge.True ->
          emit_assim t e Wf_obs.Trace.Enabled;
          record t c (Literal.pos sym);
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
    let sym = Literal.symbol lit in
    let c = cell t sym in
    if not (cell_decided c) then begin
      (* A token never seen before enlarges the instance enumeration for
         every template with free variables, so only gate the retry when
         all of the occurrence's tokens are already known. *)
      let fresh_token =
        List.exists
          (fun arg -> (not (is_marker arg)) && not (Hashtbl.mem t.token_set arg))
          (Symbol.args sym)
      in
      record t c lit;
      if fresh_token then retry_parked t
      else retry_parked ~touched:(Symbol.base sym) t
    end

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
    (* the cells and instance caches are derived: cells are re-resolved
       from the restored knowledge, restored entries start uncached *)
    Symbol_tbl.reset t.cells;
    t.parked <-
      List.map (fun sym -> entry_of t sym (cell t sym)) s.s_parked_syms;
    t.parked_n <- List.length s.s_parked_syms;
    rebuild_tokens t

  let equal_state a b =
    Knowledge.equal a.know b.know
    && Int.equal a.seqno b.seqno
    && List.equal Literal.equal a.occurrences b.occurrences
    && List.equal (fun x y -> Symbol.equal x.sym y.sym) a.parked b.parked

  let parked_count t = t.parked_n
  let decided t sym = Knowledge.decided t.know sym
  let trace t = List.rev t.occurrences
  let knowledge t = t.know
end

include Param_engine.Make (Core)

let evaluations t = (core t).Core.evaluations

(* Private cells read straight from the knowledge: the evaluation
   shares nothing with the engine's cells or caches. *)
let instance_status t template ~bound =
  let c = core t in
  let own sym = { fate = Knowledge.fate_of c.Core.know sym } in
  Core.evaluate c (instance own template bound)

module For_testing = struct
  let snapshot_codec = Core.snapshot_codec

  let cached_decision ?know t sym =
    let c = core t in
    let cached =
      match know with
      | None -> cached
      | Some know ->
          cached_under (fun inst i -> Knowledge.fate_of know inst.syms.(i))
    in
    match List.find_opt (fun e -> Symbol.equal e.sym sym) c.Core.parked with
    | None -> None
    | Some e ->
        if Array.for_all cached e.insts then
          Some
            (Array.fold_left
               (fun acc inst -> combine acc inst.status)
               Knowledge.True e.insts)
        else None

  let fate_cells t =
    Symbol_tbl.fold (fun sym c acc -> (sym, c.fate) :: acc) (core t).Core.cells []
end
