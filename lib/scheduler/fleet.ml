open Wf_core

(* Fleet execution: one spec, 10^5..10^6 parameter bindings.

   The symbolic Param_sched keeps one Knowledge AVL, one occurrence
   list cell, and one memoized per-instance guard table per binding —
   kilobytes of boxed heap each.  For the common fleet shape (every
   dependency parametrized by a single variable, every atom's
   parameters all that variable) the bindings are provably independent:
   an instantiated guard's symbols all carry the binding's own token,
   so an occurrence for binding i cannot change any verdict of binding
   j ≠ i.  That licenses two structural savings:

   - {e Marker-space evaluation}.  All bindings share the guard
     templates synthesized from the skeleton (symbols like [p(?x)]);
     the residuation automaton of an instantiated guard is isomorphic
     to the skeleton's under the renaming [?x → token], so one compiled
     {!Gtable} per template serves the whole fleet.  A ground
     occurrence [p(17)] is classified to (base, binding) once and then
     steps binding 17's state int through the shared table.

   - {e Arena storage}.  Per-binding state is two int vectors in a
     segmented {!Arena}: a fate word per event base (empty /
     parked@tick / occurred(pol)@seqno) and a table state per positive
     guard slot.  No per-instance heap blocks.  The arena is a cache of
     the occurrence log: a checkpoint shares the append-only logs and
     saves only the parked fates, and restore rebuilds the arena by
     replay.

   - {e Per-state Open verdicts}.  Where a compiled table leaves a
     state [Open], the verdict is still a function of that state alone
     (every undecided symbol of the alphabet is reserved, see
     [open_verdict]), so each state's verdict is computed symbolically
     once, by the first binding that reaches it, and read from an int
     array ever after.

   Guards that exceed the gtable bound (no compiled table) stay on the
   symbolic leg for every decision: the fallback rebuilds a tiny
   Knowledge over the template's own marked alphabet from the binding's
   fate words — same verdicts as Param_sched, no substitution, no
   global state.  Journaling, admission and recovery are the shared
   {!Param_engine} shell; this module holds the state, the decisions
   and the snapshot (see [snapshot]). *)

type outcome = Param_engine.outcome =
  | Accepted
  | Parked
  | Rejected
  | Already
  | Busy of { retry_after : float }

(* --- eligibility --------------------------------------------------------- *)

let is_marker = Param_engine.is_marker
let fresh_marker = Param_engine.fresh_marker

(* One distinct variable per dependency, and every atom's parameters
   are all variables (hence all that variable) with arity >= 1.  Then
   every symbol of every instantiated guard carries exactly the
   binding's token, so bindings are independent.  Shared bases must
   also agree on arity across dependencies, or ground symbols could
   not be classified to a unique (base, binding). *)
let eligible deps =
  deps <> []
  && List.for_all
       (fun dep ->
         match Ptemplate.vars dep with
         | [ _ ] ->
             List.for_all
               (fun (a : Ptemplate.atom) ->
                 a.Ptemplate.params <> []
                 && List.for_all
                      (function
                        | Ptemplate.Var _ -> true
                        | Ptemplate.Const _ -> false)
                      a.Ptemplate.params)
               (Ptemplate.atoms dep)
         | _ -> false)
       deps
  &&
  let arity : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.for_all
    (fun dep ->
      List.for_all
        (fun (a : Ptemplate.atom) ->
          let n = List.length a.Ptemplate.params in
          match Hashtbl.find_opt arity a.Ptemplate.base with
          | Some m -> m = n
          | None ->
              Hashtbl.add arity a.Ptemplate.base n;
              true)
        (Ptemplate.atoms dep))
    deps

(* A checkpoint holds no arena: per-binding guard state is a function
   of the occurrence log (residuation, §3.4) plus the parked fates, so
   [restore] rebuilds the arena by replaying the log.  [f_tokens] and
   [f_occ] are views of the engine's append-only vectors
   ({!Arena.Vec.share}): their segments are shared, and the engine only
   ever pushes past the views' lengths. *)
type snapshot = {
  f_tokens : string Arena.Vec.t; (* binding id -> token *)
  f_occ : int Arena.Vec.t; (* packed occurrence log *)
  f_ptick : int;
  f_extras : Literal.t array; (* off-spec occurrence log, oldest first *)
  f_parked : int array; (* (binding, base, fate word) per parked fate *)
}

module Core = struct
  module B = Wf_store.Binio

  type nonrec snapshot = snapshot

  (* The durable frame: O(bindings + occurrences) to encode, and only
     encoded when a store is attached.  Vectors and arrays are written
     as counted sequences, like lists; vectors are streamed, not
     copied. *)
  let vec fill c =
    B.custom
      (fun buf v ->
        B.write B.uint buf (Arena.Vec.length v);
        Arena.Vec.iter (B.write c buf) v)
      (fun r ->
        let v = Arena.Vec.create fill in
        for _ = 1 to B.read B.uint r do
          Arena.Vec.push v (B.read c r)
        done;
        v)

  let array c = B.map Array.of_list Array.to_list (B.list c)

  let triples =
    B.map
      (fun a ->
        if Array.length a mod 3 <> 0 then
          B.fail "fleet snapshot: ragged parked triples"
        else a)
      Fun.id (array B.int)

  let snapshot_codec =
    B.map
      (fun ((f_tokens, f_occ, f_ptick), (f_extras, f_parked)) ->
        { f_tokens; f_occ; f_ptick; f_extras; f_parked })
      (fun s -> ((s.f_tokens, s.f_occ, s.f_ptick), (s.f_extras, s.f_parked)))
      B.(
        pair
          (triple (vec "" string) (vec 0 int) int)
          (pair (array Wire.literal) triples))

  (* --- engine -------------------------------------------------------------- *)

  type slot = {
    s_guard : Guard.t; (* template guard, over marked symbols *)
    s_table : Gtable.t option; (* shared compiled residuation table *)
    s_col : int; (* arena column of this slot's table state *)
    s_alpha : (Symbol.t * int) array; (* (marked symbol, base id) alphabet *)
    s_open : int array;
        (* per table state: its verdict once known ([verdict_code]), 0
           before; empty without a table *)
  }

  (* Counters bumped on every input, resolved once against [fstats]. *)
  type counters = {
    c_attempts : Wf_obs.Metrics.counter;
    c_occurred : Wf_obs.Metrics.counter;
    c_table_steps : Wf_obs.Metrics.counter;
    c_symbolic : Wf_obs.Metrics.counter;
  }

  let k_attempts = Wf_obs.Metrics.key "fleet_attempts"
  let k_occurred = Wf_obs.Metrics.key "fleet_occurred"
  let k_table_steps = Wf_obs.Metrics.key "fleet_table_steps"
  let k_symbolic = Wf_obs.Metrics.key "fleet_symbolic_evals"

  let counters_of m =
    let c = Wf_obs.Metrics.counter m in
    {
      c_attempts = c k_attempts;
      c_occurred = c k_occurred;
      c_table_steps = c k_table_steps;
      c_symbolic = c k_symbolic;
    }

  type t = {
    env : Param_engine.env;
    bases : string array;
    base_arity : int array;
    base_index : (string, int) Hashtbl.t;
    slots : slot array; (* positive templates, in template order *)
    pos_slots : int array array; (* per base: its positive slots *)
    steps : (int * Gtable.t * int * int) array array;
        (* per base: (state col, table, pos input, neg input) for every
           slot whose compiled alphabet contains the base *)
    mutable arena : Arena.t; (* width = |bases| + |slots| *)
    (* Binding interner, open-addressed (power-of-two capacity, linear
       probing, resize at 4/5 load): at fleet scale a generic Hashtbl
       costs ~6 words per binding in cons buckets and slack, this one
       flat int array ~1.3.  A slot is [-1] or [(hash lsl 31) lor id]
       (see [itab_slot]), so a probe reads the token only on a hash
       match and growth moves ints. *)
    mutable itab : int array;
    mutable tokens : string Arena.Vec.t; (* binding id -> token *)
    (* Park log: fate cells [bind * |bases| + base], appended as each
       fate parks.  A cell parks at most once (parked only moves to
       occurred), so the log holds every parked fate exactly once, plus
       cells that have occurred since they parked, which [snapshot] and
       [parked] compact away.  Derived state: [equal_state] ignores it. *)
    mutable plog : int array;
    mutable plog_len : int;
    mutable snapshot_reads : int; (* fate cells read by every snapshot *)
    mutable occ : int Arena.Vec.t; (* packed occurrence log, oldest first *)
    mutable extras_log : Literal.t array; (* off-spec occurrences *)
    mutable extras_len : int;
    extras : (string, int) Hashtbl.t; (* symbol name -> (seqno lsl 1) lor pol *)
    mutable seqno : int;
    mutable ptick : int; (* park-order clock *)
    mutable parked_n : int;
    mutable parked_peak : int; (* last value sent to fleet_parked_peak *)
    ctr : counters;
  }

  (* Fate words (arena columns 0..|bases|-1), tag in the low 2 bits:
     0 = undecided, 1 = parked (park tick in bits 2..), 3 = occurred
     (polarity in bit 2, global seqno in bits 3.. — seqnos preserve the
     assimilation order that pending terms are sensitive to). *)
  let tag_of w = w land 3
  let tag_parked = 1
  let tag_occurred = 3
  let parked_word ~tick = (tick lsl 2) lor tag_parked
  let parked_tick w = w lsr 2

  let occurred_word ~pol ~seqno =
    (seqno lsl 3)
    lor ((match pol with Literal.Pos -> 1 | Literal.Neg -> 0) lsl 2)
    lor tag_occurred

  let occurred_pol w = if w land 4 <> 0 then Literal.Pos else Literal.Neg
  let occurred_seqno w = w lsr 3

  (* --- binding interner ----------------------------------------------------- *)

  (* A slot packs the token's [Hashtbl.hash] (30 bits) above its 31-bit
     binding id; empty slots are [-1]. *)
  let id_bits = 31
  let id_mask = (1 lsl id_bits) - 1
  let itab_slot h id = (h lsl id_bits) lor id

  (* The id of [tok], whose hash is [h], or -1. *)
  let itab_find t tok h =
    let itab = t.itab in
    let mask = Array.length itab - 1 in
    let rec probe i =
      let s = Array.unsafe_get itab i in
      if s < 0 then -1
      else if
        s lsr id_bits = h
        && String.equal (Arena.Vec.get t.tokens (s land id_mask)) tok
      then s land id_mask
      else probe ((i + 1) land mask)
    in
    probe (h land mask)

  (* Store a slot whose id is not in [itab] yet. *)
  let itab_put itab s =
    let mask = Array.length itab - 1 in
    let rec probe i =
      if Array.unsafe_get itab i < 0 then Array.unsafe_set itab i s
      else probe ((i + 1) land mask)
    in
    probe ((s lsr id_bits) land mask)

  let itab_capacity_for n =
    let cap = ref 1024 in
    while 5 * (n + 1) > 4 * !cap do
      cap := 2 * !cap
    done;
    !cap

  (* Doubles at 4/5 load, moving the slots' ints: no token is read. *)
  let itab_maybe_grow t =
    let old = t.itab in
    if 5 * (Arena.Vec.length t.tokens + 1) > 4 * Array.length old then begin
      let itab = Array.make (2 * Array.length old) (-1) in
      for i = 0 to Array.length old - 1 do
        let s = Array.unsafe_get old i in
        if s >= 0 then itab_put itab s
      done;
      t.itab <- itab
    end

  let checkpoint_every = 1024

  let create env deps templates =
    if not (eligible deps) then
      invalid_arg "Fleet.create: dependencies are not fleet-eligible";
    let base_index = Hashtbl.create 16 in
    let rev_bases = ref [] in
    let rev_arity = ref [] in
    let n_bases = ref 0 in
    let note_base name ar =
      if not (Hashtbl.mem base_index name) then begin
        Hashtbl.add base_index name !n_bases;
        rev_bases := name :: !rev_bases;
        rev_arity := ar :: !rev_arity;
        incr n_bases
      end
    in
    List.iter
      (fun (_, (atom : Ptemplate.atom), g) ->
        note_base atom.Ptemplate.base (List.length atom.Ptemplate.params);
        Symbol.Set.iter
          (fun sym -> note_base (Symbol.base sym) (List.length (Symbol.args sym)))
          (Guard.symbols g))
      templates;
    let bases = Array.of_list (List.rev !rev_bases) in
    let base_arity = Array.of_list (List.rev !rev_arity) in
    let nb = Array.length bases in
    let pos_templates =
      List.filter
        (fun (_, (atom : Ptemplate.atom), _) -> atom.Ptemplate.pol = Literal.Pos)
        templates
    in
    let slots =
      Array.of_list
        (List.mapi
           (fun j (_, _, g) ->
             let alpha =
               Array.of_list
                 (List.map
                    (fun sym -> (sym, Hashtbl.find base_index (Symbol.base sym)))
                    (Symbol.Set.elements (Guard.symbols g)))
             in
             let table = Gtable.lookup g in
             {
               s_guard = g;
               s_table = table;
               s_col = nb + j;
               s_alpha = alpha;
               s_open =
                 (match table with
                 | Some tbl -> Array.make (Gtable.num_states tbl) 0
                 | None -> [||]);
             })
           pos_templates)
    in
    let pos_slots = Array.make nb [||] in
    List.iteri
      (fun j (_, (atom : Ptemplate.atom), _) ->
        let b = Hashtbl.find base_index atom.Ptemplate.base in
        pos_slots.(b) <- Array.append pos_slots.(b) [| j |])
      pos_templates;
    let steps = Array.make nb [||] in
    Array.iter
      (fun slot ->
        match slot.s_table with
        | None -> ()
        | Some tbl ->
            Array.iter
              (fun (sym, b) ->
                match
                  ( Gtable.occ_input tbl sym Literal.Pos,
                    Gtable.occ_input tbl sym Literal.Neg )
                with
                | Some cp, Some cn ->
                    steps.(b) <- Array.append steps.(b) [| (slot.s_col, tbl, cp, cn) |]
                | _ -> ())
              slot.s_alpha)
      slots;
    {
      env;
      bases;
      base_arity;
      base_index;
      slots;
      pos_slots;
      steps;
      arena = Arena.create ~width:(nb + Array.length slots);
      itab = Array.make 1024 (-1);
      tokens = Arena.Vec.create "";
      plog = [||];
      plog_len = 0;
      snapshot_reads = 0;
      occ = Arena.Vec.create 0;
      extras_log = [||];
      extras_len = 0;
      extras = Hashtbl.create 16;
      seqno = 0;
      ptick = 0;
      parked_n = 0;
      parked_peak = 0;
      ctr = counters_of env.fstats;
    }

  let carry ~from t = t.parked_peak <- from.parked_peak

  (* --- classification and interning ---------------------------------------- *)

  (* A ground symbol is on-spec when its base and arity match the spec
     and its arguments are all one ordinary token: then it is exactly one
     binding's instance of one event base.  Everything else — unknown
     base, arity mismatch, mixed-argument tuples, marker-shaped tokens —
     matches no template atom (or would re-open variables), so no guard
     ever mentions it: it is vacuously enabled and recorded off to the
     side, mirroring Param_sched's empty-verdict path. *)
  type cls = On_spec of int * string | Off_spec

  let classify t sym =
    match Hashtbl.find_opt t.base_index (Symbol.base sym) with
    | None -> Off_spec
    | Some b -> (
        match Symbol.args sym with
        | [] -> Off_spec
        | a0 :: rest ->
            if
              List.compare_length_with rest (t.base_arity.(b) - 1) = 0
              && List.for_all (String.equal a0) rest
              && (not (is_marker a0))
              && not (String.equal a0 fresh_marker)
            then On_spec (b, a0)
            else Off_spec)

  let intern t tok =
    let h = Hashtbl.hash tok in
    match itab_find t tok h with
    | i when i >= 0 -> i
    | _ ->
        let i = Arena.Vec.length t.tokens in
        if i > id_mask then invalid_arg "Fleet: more than 2^31 bindings";
        itab_maybe_grow t;
        itab_put t.itab (itab_slot h i);
        Arena.Vec.push t.tokens tok;
        Arena.ensure t.arena i;
        i

  let find_binding t tok = itab_find t tok (Hashtbl.hash tok)

  let ground_symbol t b tok =
    Symbol.parametrized t.bases.(b) (List.init t.base_arity.(b) (fun _ -> tok))

  let token t bind = Arena.Vec.get t.tokens bind

  (* --- occurrence log ------------------------------------------------------ *)

  (* One int per occurrence: on-spec entries pack
     ((binding * |bases| + base) lsl 1) lor polarity; off-spec entries are
     [-(k+1)] indexing [extras_log].  The seqno of entry i is i+1 — one
     seqno per recorded occurrence, in log order. *)
  let push_occ t entry = Arena.Vec.push t.occ entry

  let occ_entry_literal t entry =
    if entry >= 0 then
      let pol = if entry land 1 <> 0 then Literal.Pos else Literal.Neg in
      let packed = entry lsr 1 in
      let nb = Array.length t.bases in
      let b = packed mod nb and bind = packed / nb in
      { Literal.sym = ground_symbol t b (token t bind); pol }
    else t.extras_log.(-entry - 1)

  (* Mark (bind, b) occurred at [seqno] and step every compiled table that
     reads base [b]; returns the number of table steps.  The arena is a
     cache of the occurrence log: live recording and [restore]'s replay
     both go through here. *)
  let set_occurred t bind b pol ~seqno =
    Arena.set t.arena bind b (occurred_word ~pol ~seqno);
    let st = t.steps.(b) in
    for i = 0 to Array.length st - 1 do
      let col, tbl, cp, cn = st.(i) in
      let input = match pol with Literal.Pos -> cp | Literal.Neg -> cn in
      Arena.set t.arena bind col
        (Gtable.step_input tbl (Arena.get t.arena bind col) input)
    done;
    Array.length st

  let record_onspec t bind b pol =
    t.seqno <- t.seqno + 1;
    if tag_of (Arena.get t.arena bind b) = tag_parked then
      t.parked_n <- t.parked_n - 1;
    let nb = Array.length t.bases in
    push_occ t
      ((((bind * nb) + b) lsl 1)
      lor (match pol with Literal.Pos -> 1 | Literal.Neg -> 0));
    Wf_obs.Metrics.bump_by t.ctr.c_table_steps
      (set_occurred t bind b pol ~seqno:t.seqno)

  let record_extra t (lit : Literal.t) =
    t.seqno <- t.seqno + 1;
    if t.extras_len >= Array.length t.extras_log then begin
      let cap = max 16 (2 * Array.length t.extras_log) in
      let arr = Array.make cap lit in
      Array.blit t.extras_log 0 arr 0 t.extras_len;
      t.extras_log <- arr
    end;
    t.extras_log.(t.extras_len) <- lit;
    t.extras_len <- t.extras_len + 1;
    Hashtbl.replace t.extras
      (Symbol.name lit.Literal.sym)
      ((t.seqno lsl 1)
      lor (match lit.Literal.pol with Literal.Pos -> 1 | Literal.Neg -> 0));
    push_occ t (-t.extras_len)

  (* --- park log ------------------------------------------------------------ *)

  let plog_push t cell =
    if t.plog_len = Array.length t.plog then begin
      let a = Array.make (max 256 (2 * t.plog_len)) 0 in
      Array.blit t.plog 0 a 0 t.plog_len;
      t.plog <- a
    end;
    Array.unsafe_set t.plog t.plog_len cell;
    t.plog_len <- t.plog_len + 1

  let cell_word t cell =
    let nb = Array.length t.bases in
    Arena.get t.arena (cell / nb) (cell mod nb)

  (* Drop the log's cells that have occurred since they parked; returns
     the cells read.  Afterwards the log holds exactly the parked fates. *)
  let plog_compact t =
    let read = t.plog_len in
    let k = ref 0 in
    for i = 0 to read - 1 do
      let cell = Array.unsafe_get t.plog i in
      if tag_of (cell_word t cell) = tag_parked then begin
        Array.unsafe_set t.plog !k cell;
        incr k
      end
    done;
    t.plog_len <- !k;
    read

  (* --- evaluation ---------------------------------------------------------- *)

  (* Symbolic evaluation: rebuild the binding's knowledge over the slot's
     own marked alphabet from its fate words.  Verdict-equal to
     Param_sched's [eval_active] on the instantiated guard — the
     renaming [?x → token] is an isomorphism of guards and knowledge
     restrictions, and [Knowledge.status] only consults symbols of the
     guard.  Uncounted; decisions go through [slot_symbolic]. *)
  let symbolic_status t slot bind =
    let know = ref Knowledge.empty in
    let reserved = ref Symbol.Set.empty in
    Array.iter
      (fun (sym, b) ->
        let w = Arena.get t.arena bind b in
        if tag_of w = tag_occurred then
          know :=
            Knowledge.occurred
              { Literal.sym; pol = occurred_pol w }
              ~seqno:(occurred_seqno w) !know
        else reserved := Symbol.Set.add sym !reserved)
      slot.s_alpha;
    Knowledge.status ~reserved:!reserved !know slot.s_guard

  let slot_symbolic t slot bind =
    Wf_obs.Metrics.bump t.ctr.c_symbolic;
    symbolic_status t slot bind

  let verdict_code = function
    | Knowledge.True -> 1
    | Knowledge.False -> 2
    | Knowledge.Unknown -> 3

  (* The verdict of a binding whose table state [st] is [Open].  The
     state is the residual of the guard by the binding's occurrences
     (§3.4), and every symbol still in the alphabet but undecided is
     reserved: a fleet binding's events are decided only through this
     engine, one input at a time.  The status therefore asks what the
     residual admits when nothing else happens, which the residual alone
     determines — so the first binding to reach [st] evaluates it
     symbolically and every later one reads [s_open]. *)
  let open_verdict t slot bind st =
    match Array.unsafe_get slot.s_open st with
    | 1 -> Knowledge.True
    | 2 -> Knowledge.False
    | 3 -> Knowledge.Unknown
    | _ ->
        let v = slot_symbolic t slot bind in
        slot.s_open.(st) <- verdict_code v;
        v

  let slot_status t slot bind =
    match slot.s_table with
    | Some tbl -> (
        let st = Arena.get t.arena bind slot.s_col in
        match Gtable.verdict tbl st with
        | Gtable.Enabled -> Knowledge.True
        | Gtable.Violated -> Knowledge.False
        | Gtable.Open -> open_verdict t slot bind st)
    | None -> slot_symbolic t slot bind

  let decide t bind b =
    t.env.work <- t.env.work + 1;
    let slots = t.pos_slots.(b) in
    let rec go acc i =
      if i >= Array.length slots then acc
      else
        match acc with
        | Knowledge.False -> acc
        | _ -> go (Param_engine.combine acc (slot_status t t.slots.(slots.(i)) bind)) (i + 1)
    in
    go Knowledge.True 0

  (* --- tracing ------------------------------------------------------------- *)

  let inst_guard slot tok =
    Guard.map_symbols
      (fun sym ->
        match Symbol.args sym with
        | [] -> sym
        | args ->
            Symbol.parametrized (Symbol.base sym)
              (List.map (fun a -> if is_marker a then tok else a) args))
      slot.s_guard

  (* The guard id {!Param_engine.S.set_tracer} documents: the interned
     instance guard of the first matching positive template; only
     computed when a sink is listening. *)
  let emit_assim t sym outcome =
    if Param_engine.tracing t.env then
      Param_engine.emit_assim t.env sym outcome
        ~guard:
          (match classify t sym with
          | On_spec (b, tok) when Array.length t.pos_slots.(b) > 0 ->
              Guard.uid (inst_guard t.slots.(t.pos_slots.(b).(0)) tok)
          | _ -> -1)

  (* [emit_assim] for binding [bind]'s instance of base [b]: the ground
     symbol is built only when a sink is listening. *)
  let emit_assim_at t b bind outcome =
    if Param_engine.tracing t.env then
      emit_assim t (ground_symbol t b (token t bind)) outcome

  (* --- the engine ---------------------------------------------------------- *)

  (* The base of [bind]'s newest parked fate with a park tick below
     [below], or -1.  Park ticks are distinct, and a retry pass parks
     nothing, so successive calls with the last tick found walk the
     row's parked fates newest first without sorting or allocating. *)
  let newest_parked_below t bind below =
    let best = ref (-1) and best_tick = ref (-1) in
    for b = 0 to Array.length t.bases - 1 do
      let w = Arena.get t.arena bind b in
      if tag_of w = tag_parked then begin
        let tick = parked_tick w in
        if tick < below && tick > !best_tick then begin
          best := b;
          best_tick := tick
        end
      end
    done;
    !best

  (* Binding-level dispatch: an occurrence for binding [bind] can only
     change [bind]'s own verdicts (independence, see the header), so the
     retry loop walks just that binding's parked attempts — newest first
     by park tick, matching Param_sched's global parked list order — and
     recurses until a pass accepts nothing, like [retry_parked]. *)
  let rec retry_binding t bind =
    let progress = ref false in
    let b = ref (newest_parked_below t bind max_int) in
    while !b >= 0 do
      let tick = parked_tick (Arena.get t.arena bind !b) in
      (match decide t bind !b with
      | Knowledge.True ->
          emit_assim_at t !b bind Wf_obs.Trace.Enabled;
          record_onspec t bind !b Literal.Pos;
          progress := true
      | Knowledge.False | Knowledge.Unknown ->
          emit_assim_at t !b bind Wf_obs.Trace.Reduced);
      b := newest_parked_below t bind tick
    done;
    if !progress then retry_binding t bind

  let apply_attempt t sym =
    Wf_obs.Metrics.bump t.ctr.c_attempts;
    match classify t sym with
    | On_spec (b, tok) -> (
        let bind = intern t tok in
        let w = Arena.get t.arena bind b in
        if tag_of w = tag_occurred then Already
        else
          match decide t bind b with
          | Knowledge.True ->
              emit_assim t sym Wf_obs.Trace.Enabled;
              record_onspec t bind b Literal.Pos;
              retry_binding t bind;
              Accepted
          | Knowledge.False ->
              emit_assim t sym Wf_obs.Trace.Rejected;
              Rejected
          | Knowledge.Unknown ->
              emit_assim t sym Wf_obs.Trace.Parked;
              if tag_of w <> tag_parked then begin
                t.ptick <- t.ptick + 1;
                Arena.set t.arena bind b (parked_word ~tick:t.ptick);
                plog_push t ((bind * Array.length t.bases) + b);
                t.parked_n <- t.parked_n + 1;
                if t.parked_n > t.parked_peak then begin
                  t.parked_peak <- t.parked_n;
                  Wf_obs.Metrics.gauge_max t.env.fstats "fleet_parked_peak"
                    (float_of_int t.parked_n)
                end
              end;
              Parked)
    | Off_spec ->
        if Hashtbl.mem t.extras (Symbol.name sym) then Already
        else begin
          (* no template matches: the empty verdict conjunction is True *)
          t.env.work <- t.env.work + 1;
          emit_assim t sym Wf_obs.Trace.Enabled;
          record_extra t (Literal.pos sym);
          Accepted
        end

  let apply_occurred t lit =
    Wf_obs.Metrics.bump t.ctr.c_occurred;
    let sym = Literal.symbol lit in
    match classify t sym with
    | On_spec (b, tok) ->
        let bind = intern t tok in
        if tag_of (Arena.get t.arena bind b) <> tag_occurred then begin
          record_onspec t bind b lit.Literal.pol;
          retry_binding t bind
        end
    | Off_spec ->
        if not (Hashtbl.mem t.extras (Symbol.name sym)) then record_extra t lit

  (* --- crash recovery ------------------------------------------------------ *)

  (* O(1) in the logs, which are shared (see [snapshot]'s type), plus
     the park log: the cells parked at the last snapshot and those parked
     since, compacted to the parked ones.  Sorting the cells puts the
     triples in (binding, base) order, which [restore] checks and the
     pinned frames fix.  Allocates only the parked cells and triples. *)
  let snapshot t =
    let nb = Array.length t.bases in
    t.snapshot_reads <- t.snapshot_reads + plog_compact t;
    let cells = Array.sub t.plog 0 t.plog_len in
    Array.sort Int.compare cells;
    let parked = Array.make (3 * t.plog_len) 0 in
    Array.iteri
      (fun k cell ->
        parked.(3 * k) <- cell / nb;
        parked.((3 * k) + 1) <- cell mod nb;
        parked.((3 * k) + 2) <- cell_word t cell)
      cells;
    {
      f_tokens = Arena.Vec.share t.tokens;
      f_occ = Arena.Vec.share t.occ;
      f_ptick = t.ptick;
      f_extras = Array.sub t.extras_log 0 t.extras_len;
      f_parked = parked;
    }

  (* Takes writable copies of the snapshot's vectors ({!Arena.Vec.restore}:
     the engine that took the snapshot, and every other engine restored
     from it, keep writing their own last segments), then rebuilds the
     arena: replay the log through [set_occurred] — without counting
     table steps, which were counted when they first ran — and overlay
     the parked fates. *)
  let restore t s =
    let n = Arena.Vec.length s.f_tokens and nb = Array.length t.bases in
    let corrupt_if c = if c then B.fail "fleet snapshot: bad index" in
    t.tokens <- Arena.Vec.restore s.f_tokens;
    t.itab <- Array.make (itab_capacity_for n) (-1);
    for i = 0 to n - 1 do
      itab_put t.itab (itab_slot (Hashtbl.hash (token t i)) i)
    done;
    t.occ <- Arena.Vec.restore s.f_occ;
    t.seqno <- Arena.Vec.length t.occ;
    t.ptick <- s.f_ptick;
    t.extras_log <- Array.copy s.f_extras;
    t.extras_len <- Array.length s.f_extras;
    Hashtbl.reset t.extras;
    t.arena <- Arena.create ~width:(Arena.width t.arena);
    if n > 0 then Arena.ensure t.arena (n - 1);
    for i = 0 to Arena.Vec.length t.occ - 1 do
      let entry = Arena.Vec.get t.occ i in
      if entry >= 0 then begin
        let packed = entry lsr 1 in
        corrupt_if (packed / nb >= n);
        let pol = if entry land 1 <> 0 then Literal.Pos else Literal.Neg in
        ignore (set_occurred t (packed / nb) (packed mod nb) pol ~seqno:(i + 1))
      end
      else begin
        let lit = t.extras_log.(-entry - 1) in
        Hashtbl.replace t.extras
          (Symbol.name lit.Literal.sym)
          (((i + 1) lsl 1)
          lor (match lit.Literal.pol with Literal.Pos -> 1 | Literal.Neg -> 0))
      end
    done;
    let p = s.f_parked in
    t.parked_n <- Array.length p / 3;
    t.plog <- Array.make t.parked_n 0;
    t.plog_len <- t.parked_n;
    for k = 0 to t.parked_n - 1 do
      let bind = p.(3 * k) and b = p.((3 * k) + 1) and w = p.((3 * k) + 2) in
      let cell = (bind * nb) + b in
      (* ascending cells: each parked fate once, as [snapshot] writes *)
      corrupt_if
        (bind < 0 || bind >= n || b < 0 || b >= nb || tag_of w <> tag_parked
        || (k > 0 && cell <= t.plog.(k - 1)));
      Arena.set t.arena bind b w;
      t.plog.(k) <- cell
    done

  let vec_equal eq a b =
    let n = Arena.Vec.length a in
    Int.equal n (Arena.Vec.length b)
    &&
    let rec go i = i >= n || (eq (Arena.Vec.get a i) (Arena.Vec.get b i) && go (i + 1)) in
    go 0

  let equal_state a b =
    Int.equal a.seqno b.seqno
    && Int.equal a.ptick b.ptick
    && Int.equal a.parked_n b.parked_n
    && vec_equal String.equal a.tokens b.tokens
    && Arena.equal a.arena b.arena
    && vec_equal Int.equal a.occ b.occ
    && Int.equal a.extras_len b.extras_len
    &&
    let rec extras i =
      i >= a.extras_len
      || (Literal.equal a.extras_log.(i) b.extras_log.(i) && extras (i + 1))
    in
    extras 0

  (* --- queries ------------------------------------------------------------- *)

  let cell_symbol t cell =
    let nb = Array.length t.bases in
    ground_symbol t (cell mod nb) (token t (cell / nb))

  (* Served from the park log: O(parked log), not O(bindings × bases). *)
  let parked t =
    ignore (plog_compact t);
    let cells = Array.sub t.plog 0 t.plog_len in
    Array.sort
      (fun a b -> Int.compare (parked_tick (cell_word t b)) (parked_tick (cell_word t a)))
      cells;
    Array.fold_right (fun cell acc -> cell_symbol t cell :: acc) cells []

  (* The full scan of every row's fate words that the park log replaced:
     the parked triples in (binding, base) order and the parked symbols
     newest first.  O(bindings × bases); a differential oracle. *)
  let scan_parked t =
    let nb = Array.length t.bases in
    let triples = ref [] and by_tick = ref [] in
    for bind = Arena.rows t.arena - 1 downto 0 do
      for b = nb - 1 downto 0 do
        let w = Arena.get t.arena bind b in
        if tag_of w = tag_parked then begin
          triples := bind :: b :: w :: !triples;
          by_tick := (parked_tick w, ground_symbol t b (token t bind)) :: !by_tick
        end
      done
    done;
    ( Array.of_list !triples,
      List.map snd (List.sort (fun (ta, _) (tb, _) -> Int.compare tb ta) !by_tick) )

  let parked_count t = t.parked_n

  let trace t =
    List.init (Arena.Vec.length t.occ) (fun i ->
        occ_entry_literal t (Arena.Vec.get t.occ i))

  let decided t sym =
    match classify t sym with
    | On_spec (b, tok) -> (
        match find_binding t tok with
        | -1 -> false
        | bind -> tag_of (Arena.get t.arena bind b) = tag_occurred)
    | Off_spec -> Hashtbl.mem t.extras (Symbol.name sym)

  let knowledge t =
    let know = ref Knowledge.empty in
    for i = 0 to Arena.Vec.length t.occ - 1 do
      know :=
        Knowledge.occurred
          (occ_entry_literal t (Arena.Vec.get t.occ i))
          ~seqno:(i + 1) !know
    done;
    !know

  let bindings t = Arena.Vec.length t.tokens

  let interner_slots t = Array.length t.itab

  let table_states t =
    Array.fold_left
      (fun acc slot ->
        match slot.s_table with
        | Some tbl -> acc + Gtable.num_states tbl
        | None -> acc)
      0 t.slots

  (* Every (binding, table slot) pair whose state is Open: the verdict the
     decisions read ([open_verdict], filled on a miss) against a fresh
     uncounted symbolic evaluation of that binding. *)
  let audit_open_verdicts t =
    let checked = ref 0 and mismatches = ref 0 in
    for bind = 0 to Arena.rows t.arena - 1 do
      Array.iter
        (fun slot ->
          match slot.s_table with
          | Some tbl ->
              let st = Arena.get t.arena bind slot.s_col in
              if Gtable.verdict tbl st = Gtable.Open then begin
                incr checked;
                if open_verdict t slot bind st <> symbolic_status t slot bind then
                  incr mismatches
              end
          | None -> ())
        t.slots
    done;
    (!checked, !mismatches)

  let state_words t =
    Arena.words t.arena + Arena.Vec.words t.occ + Arena.Vec.words t.tokens
    + Array.length t.itab + Array.length t.plog
end

include Param_engine.Make (Core)

let table_states t = Core.table_states (core t)
let state_words t = Core.state_words (core t)

module For_testing = struct
  let snapshot_codec = Core.snapshot_codec
  let snapshot t = Core.snapshot (core t)
  let snapshot_reads t = (core t).Core.snapshot_reads
  let scan_parked t = Core.scan_parked (core t)
  let binding_id t tok = match Core.find_binding (core t) tok with -1 -> None | i -> Some i
  let interner_slots t = Core.interner_slots (core t)
  let bindings t = Core.bindings (core t)
  let audit_open_verdicts t = Core.audit_open_verdicts (core t)
end
