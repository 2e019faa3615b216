(* Compiled guards: a synthesized guard's residuation behavior under
   assimilation is a finite automaton over the guard's own symbols
   (Figure 2 observes this for dependencies; guards inherit it because
   [assimilate_occurred]/[assimilate_promise] never introduce symbols).
   Compiling that automaton once and flattening it into an int
   transition table turns the steady-state per-message work — which the
   symbolic engine does by DNF rewriting through [normalize_sum] — into
   one array read.

   Closed-alphabet precondition: a table is only valid while the
   guard's symbol set is fixed.  Ground guards (everything the actor
   and central schedulers evaluate) satisfy it; parametrized templates
   gain symbols as fresh tokens arrive, so Fleet compiles a template
   guard over one binding's marked symbols and Param_sched compiles
   none.

   The symbolic leg stays authoritative: a table answers [Enabled] /
   [Violated] only when the residual is syntactically ⊤ / 0, and an
   [Open] state is answered by [Knowledge.status], through the status
   memo where the alphabet allows one.  Both
   decisive answers are sound under extra restrictions (reservations,
   never-sets) because they hold over *all* completions: restricting
   the future preserves them. *)

type state = int
type verdict = Enabled | Violated | Open

(* Per-state verdict bitsets. *)
let bit_get b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

type t = {
  syms : Symbol.t array; (* the guard's alphabet, sorted *)
  hashes : int array; (* [Symbol.hash] of each alphabet symbol *)
  width : int; (* 4 * |syms|: per-symbol inputs □x, □x̄, ◇x, ◇x̄ *)
  next : int array; (* next.(s * width + input) = successor state *)
  enabled : Bytes.t; (* residual is ⊤ *)
  violated : Bytes.t; (* residual is 0 *)
  guard : Guard.t; (* the compiled guard, state 0's residual, for fallback *)
  num_states : int;
  residuals : Guard.t array Lazy.t;
      (* residual guard per state; only the tests read past state 0, so
         a renamed table renames them when first read *)
  state_bits : int; (* bits of a state number in a status-memo key *)
  status_memo : Knowledge.status Int_table.t option;
      (* (status code, state), packed into one int -> Knowledge.status
         of the compiled guard; [None] when the alphabet is too wide to
         pack a code *)
  mutable pursuit_memo : pursuit_memo option;
      (* created on the first pursuit of a table that has a status
         memo, so compiling and renaming allocate none *)
}

and pursuit = { reserves : Symbol.t list; enabling : Literal.t list }

and pursuit_memo = {
  terms : Term.t array; (* the pending terms of the guard's products *)
  pursuits : pursuit Int_table.t option;
      (* (status code, each term's pending status) -> what a parked
         attempt pursues; [None] when the key does not fit an int *)
}

(* Input codes within a symbol's 4-slot group. *)
let occ_code = function Literal.Pos -> 0 | Literal.Neg -> 1
let prom_code = function Literal.Pos -> 2 | Literal.Neg -> 3

let initial _ = 0
let num_states t = t.num_states
let verdict t s =
  if bit_get t.enabled s then Enabled
  else if bit_get t.violated s then Violated
  else Open

(* The symbol's index in the alphabet, or [-1]: a scan of at most
   [max_symbols] precomputed hashes, confirming a hit by name, which
   neither probes a hash table nor allocates.  [Run_plan]'s routes
   repeat the loop rather than call it across modules. *)
let index t sym =
  let h = Symbol.hash sym and hashes = t.hashes in
  let n = Array.length hashes in
  let i = ref 0 in
  while
    !i < n
    && not
         (Array.unsafe_get hashes !i = h
         && Symbol.equal (Array.unsafe_get t.syms !i) sym)
  do
    incr i
  done;
  if !i < n then !i else -1

let step_occurred t s (l : Literal.t) =
  let i = index t l.Literal.sym in
  if i < 0 then s else t.next.((s * t.width) + (4 * i) + occ_code l.Literal.pol)

let step_promised t s (l : Literal.t) =
  let i = index t l.Literal.sym in
  if i < 0 then s else t.next.((s * t.width) + (4 * i) + prom_code l.Literal.pol)

(* Indexed stepping: fleets of instances sharing one table resolve each
   (symbol, polarity) to its input column once, then step every
   instance with a single array read. *)
let occ_input t sym pol =
  let i = index t sym in
  if i < 0 then None else Some ((4 * i) + occ_code pol)

let step_input t s input = t.next.((s * t.width) + input)

(* Replay a knowledge onto the table: occurrences in seqno order (the
   order the symbolic engine assimilated them — pending terms are
   order-sensitive), then the still-outstanding promises (per-symbol
   mask intersections, which commute).  [replay] stops before the
   promises and returns them as (symbol index, literal) in the order
   they are applied — descending index — so a hypothetical extra
   occurrence or promise replays exactly without rebuilding the
   knowledge.  It also returns the highest seqno replayed and the
   occurred symbols as a bit set over their indices. *)
let replay t know =
  let occs = ref [] in
  let proms = ref [] in
  let occurred = ref 0 in
  Array.iteri
    (fun i sym ->
      match Knowledge.fate_of know sym with
      | Some (Knowledge.Occurred (pol, n)) ->
          occs := (n, { Literal.sym; pol }) :: !occs;
          occurred := !occurred lor (1 lsl i)
      | Some (Knowledge.Promised pol) ->
          proms := (i, { Literal.sym; pol }) :: !proms
      | None -> ())
    t.syms;
  let occs = List.sort (fun (a, _) (b, _) -> Int.compare a b) !occs in
  let state, top =
    List.fold_left (fun (s, _) (n, l) -> (step_occurred t s l, n)) (0, min_int) occs
  in
  (state, !proms, top, !occurred)

let apply_promises t s proms =
  List.fold_left (fun s (_, l) -> step_promised t s l) s proms

(* A promise joins the outstanding ones in their replay order. *)
let rec insert_promise i l = function
  | ((j, _) as p) :: rest when j > i -> p :: insert_promise i l rest
  | rest -> (i, l) :: rest

(* --- compilation --------------------------------------------------------- *)

module GMap = Map.Make (struct
  type t = Guard.t

  let compare = Guard.compare
end)

(* A sequential guard over k symbols residuates to 2^(k-1)+1 states
   (every occurred-subset plus the violated sink), so 1024 admits
   chains up to 10 deep; beyond that a table would outweigh the
   symbolic walk it replaces. *)
let default_max_states = 1024
let max_symbols = 30 (* 4*30 inputs per state; wider guards stay symbolic *)

(* A status-memo key spends [code_bits] per alphabet symbol; wider
   alphabets keep compiled stepping but evaluate Open states
   symbolically. *)
let code_bits = 3
let max_memo_symbols = 15

let new_memo () = Int_table.create ()

(* [syms]: the guard's symbols, sorted. *)
let compile_over ~max_states syms g0 =
  let k = Array.length syms in
  if k > max_symbols then None
  else begin
    let width = 4 * k in
    let index = ref (GMap.singleton g0 0) in
    let rev_guards = ref [ g0 ] in
    let count = ref 1 in
    let queue = Queue.create () in
    Queue.add g0 queue;
    let rev_rows = ref [] in
    let overflow = ref false in
    let id_of g =
      match GMap.find_opt g !index with
      | Some s -> s
      | None ->
          if !count >= max_states then begin
            overflow := true;
            0
          end
          else begin
            let s = !count in
            incr count;
            index := GMap.add g s !index;
            rev_guards := g :: !rev_guards;
            Queue.add g queue;
            s
          end
    in
    while (not (Queue.is_empty queue)) && not !overflow do
      let g = Queue.pop queue in
      let row = Array.make width 0 in
      Array.iteri
        (fun i sym ->
          let base = 4 * i in
          row.(base + 0) <- id_of (Guard.assimilate_occurred (Literal.pos sym) g);
          row.(base + 1) <- id_of (Guard.assimilate_occurred (Literal.neg sym) g);
          row.(base + 2) <- id_of (Guard.assimilate_promise (Literal.pos sym) g);
          row.(base + 3) <- id_of (Guard.assimilate_promise (Literal.neg sym) g))
        syms;
      rev_rows := row :: !rev_rows
    done;
    if !overflow then None
    else begin
      let guards = Array.of_list (List.rev !rev_guards) in
      let n = Array.length guards in
      let next = Array.make (max 1 (n * width)) 0 in
      List.iteri
        (fun j row ->
          let s = n - 1 - j in
          Array.blit row 0 next (s * width) width)
        !rev_rows;
      let nbytes = (n + 7) / 8 in
      let enabled = Bytes.make nbytes '\000' in
      let violated = Bytes.make nbytes '\000' in
      Array.iteri
        (fun s g ->
          if Guard.is_true g then bit_set enabled s
          else if Guard.is_false g then bit_set violated s)
        guards;
      let state_bits =
        let rec go b = if 1 lsl b >= n then b else go (b + 1) in
        go 0
      in
      let status_memo =
        if k <= max_memo_symbols && (code_bits * k) + state_bits <= 62 then
          Some (new_memo ())
        else None
      in
      Some
        {
          syms;
          hashes = Array.map Symbol.hash syms;
          width;
          next;
          enabled;
          violated;
          guard = g0;
          num_states = n;
          residuals = Lazy.from_val guards;
          state_bits;
          status_memo;
          pursuit_memo = None;
        }
    end
  end

let compile ?(max_states = default_max_states) g0 =
  compile_over ~max_states
    (Array.of_list (Symbol.Set.elements (Guard.symbols g0)))
    g0

(* --- memoized lookup ----------------------------------------------------- *)

let enabled_flag = ref true
let set_enabled b = enabled_flag := b

(* The compiled path rides the interned ids ({!Guard.uid}); when the
   hash-consed engine is switched off (the differential naive leg) the
   tables go with it. *)
let active () = !enabled_flag && Intern.enabled ()

(* The table of a renamed guard, from the original's: under an
   order-preserving renaming the sorted alphabet, the breadth-first
   numbering and every residual's canonical form carry over position by
   position, so only the symbolic parts are renamed: the root is [g]
   itself, the guard being looked up, and the other residuals are
   renamed when first read.  The transition and verdict arrays are
   immutable and shared; the status and pursuit memos, filled by
   symbolic evaluation, start empty (pursuits name symbols, so they
   never carry over). *)
let rename t syms g =
  let f = Shape.between t.syms syms in
  {
    t with
    syms;
    hashes = Array.map Symbol.hash syms;
    guard = g;
    residuals = lazy (Array.map (Guard.rename f) (Lazy.force t.residuals));
    status_memo = Option.map (fun _ -> new_memo ()) t.status_memo;
    pursuit_memo = None;
  }

(* Per guard, keyed by its interned uid; behind it, per shape (see
   {!Shape}), keyed by the canonical guard: the first guard of a shape
   is compiled and every later one renames its table. *)
let memo : (int, t option) Hashtbl.t = Hashtbl.create 256
let shapes : t option GMap.t ref = ref GMap.empty
let compiled_states = ref 0
let renamed_guards = ref 0
let renamed_states = ref 0
let fallbacks = ref 0
let memo_misses = ref 0
let symbolic_evals = ref 0
let pursuit_misses = ref 0

let () =
  Intern.register_clearer (fun () ->
      Hashtbl.iter
        (fun _ r ->
          match r with
          | Some t ->
              Option.iter Int_table.reset t.status_memo;
              Option.iter
                (fun p -> Option.iter Int_table.reset p.pursuits)
                t.pursuit_memo
          | None -> ())
        memo;
      Hashtbl.reset memo;
      shapes := GMap.empty;
      compiled_states := 0;
      renamed_guards := 0;
      renamed_states := 0;
      fallbacks := 0;
      memo_misses := 0;
      symbolic_evals := 0;
      pursuit_misses := 0)

let compile_shape g =
  let syms = Array.of_list (Symbol.Set.elements (Guard.symbols g)) in
  let key = Guard.rename (Shape.canonical syms) g in
  match GMap.find_opt key !shapes with
  | Some (Some t) ->
      incr renamed_guards;
      renamed_states := !renamed_states + num_states t;
      Some (rename t syms g)
  | Some None ->
      incr fallbacks;
      None
  | None ->
      let r = compile_over ~max_states:default_max_states syms g in
      (match r with
      | Some t -> compiled_states := !compiled_states + num_states t
      | None -> incr fallbacks);
      shapes := GMap.add key r !shapes;
      r

let lookup g =
  if not (active ()) then None
  else
    let uid = Guard.uid g in
    match Hashtbl.find_opt memo uid with
    | Some r -> r
    | None ->
        let r = compile_shape g in
        Hashtbl.add memo uid r;
        r

(* A guard with its table, looked up on the first query while the
   tables are on and kept from then on: the holder asks the memo once,
   not once per query.  While the tables are off a query answers [None]
   and remembers nothing, like [lookup]. *)
type cell = {
  c_guard : Guard.t;
  c_symbols : Symbol.Set.t Lazy.t;
  mutable c_table : t option option;
}

let cell g = { c_guard = g; c_symbols = lazy (Guard.symbols g); c_table = None }
let cell_guard c = c.c_guard
let cell_symbols c = Lazy.force c.c_symbols

let cell_table c =
  if not (active ()) then None
  else
    match c.c_table with
    | Some r -> r
    | None ->
        let r = lookup c.c_guard in
        c.c_table <- Some r;
        r

(* --- status memo ---------------------------------------------------------

   [Knowledge.status] of the compiled guard reads the knowledge and the
   reservation set only at the guard's own symbols.  Of that, the table
   state already holds everything order-sensitive: it is the residual
   after the occurrences in seqno order and then the promises, and
   pending terms residuate to ⊤ or 0 exactly when [pending_status]
   says so.  What the state does not hold is each symbol's fate and
   whether it is reserved, which [mask_status] and the coverage check
   read.  A per-symbol code of 3 bits carries exactly that:

     0 undecided  1 undecided, reserved  2 occurred  3 occurred negated
     4/5 promised (negated)  6/7 promised (negated), reserved

   (reservation of an occurred symbol is never read).  So the verdict
   is a function of (code, state), and one symbolic evaluation per
   distinct pair serves every later query that lands on it. *)

let fate_code ~reserved know sym =
  let res () = Symbol.Set.mem sym reserved in
  match Knowledge.fate_of know sym with
  | Some (Knowledge.Occurred (Literal.Pos, _)) -> 2
  | Some (Knowledge.Occurred (Literal.Neg, _)) -> 3
  | Some (Knowledge.Promised pol) ->
      4 + (match pol with Literal.Pos -> 0 | Literal.Neg -> 1)
      + if res () then 2 else 0
  | None -> if res () then 1 else 0

let code_field code i = (code lsr (code_bits * i)) land 7

let set_field code i v =
  code land lnot (7 lsl (code_bits * i)) lor (v lsl (code_bits * i))

type view = {
  v_know : Knowledge.t;
  v_reserved : Symbol.Set.t;
  v_occ : state; (* after the occurrences alone *)
  v_proms : (int * Literal.t) list; (* outstanding promises, as applied *)
  v_state : state; (* after the occurrences, then the promises *)
  v_code : int;
  v_top : int; (* the highest seqno among the occurrences replayed *)
  v_occurred : int;
      (* bit [i]: alphabet symbol [i] has occurred ([max_symbols] keeps
         the alphabet within one int) *)
}

let memo_live t = t.status_memo <> None && active ()

let view t ~reserved know =
  let occ, proms, top, occurred = replay t know in
  let code = ref 0 in
  if t.status_memo <> None then
    Array.iteri
      (fun i sym -> code := set_field !code i (fate_code ~reserved know sym))
      t.syms;
  {
    v_know = know;
    v_reserved = reserved;
    v_occ = occ;
    v_proms = proms;
    v_state = apply_promises t occ proms;
    v_code = !code;
    v_top = top;
    v_occurred = occurred;
  }

let view_equal a b =
  a.v_occ = b.v_occ && a.v_state = b.v_state && a.v_code = b.v_code
  && a.v_top = b.v_top && a.v_occurred = b.v_occurred
  && List.equal
       (fun (i, l) (j, m) -> i = j && Literal.equal l m)
       a.v_proms b.v_proms

let symbolic_status ?reserved ?never know g =
  incr symbolic_evals;
  Knowledge.status ?reserved ?never know g

(* While [audit_status_memo] runs, every memo hit is also evaluated
   symbolically on the querying knowledge (uncounted), and a different
   verdict counts as a mismatch. *)
let auditing = ref false
let audit_hits = ref 0
let audit_mismatches = ref 0
let audit_pursuit_hits = ref 0
let audit_pursuit_mismatches = ref 0
let audit_views = ref 0
let audit_view_mismatches = ref 0

(* --- stepped views ---------------------------------------------------------

   A view follows its holder's knowledge and reservations one input at
   a time.  An occurrence steps the occurrence prefix by one column,
   which equals the replay exactly when it comes last in seqno order:
   an occurrence stamped below one the view already holds, or of a
   symbol already occurred, rebuilds instead.  A promise joins the
   outstanding ones in replay order (a repeated promise rebuilds); a
   reservation or release moves only the symbol's code.  Inputs on
   symbols outside the alphabet move neither state nor code. *)

type input =
  | Occurred of Literal.t * int
  | Promised of Literal.t
  | Reserved of Symbol.t
  | Released of Symbol.t

let pol_bit = function Literal.Pos -> 0 | Literal.Neg -> 1

let step t v ~reserved know = function
  | Occurred (l, seqno) -> (
      match index t l.Literal.sym with
      | -1 -> Some { v with v_know = know; v_reserved = reserved }
      | i ->
          if v.v_occurred land (1 lsl i) <> 0 || seqno <= v.v_top then None
          else
            let occ = step_input t v.v_occ ((4 * i) + occ_code l.Literal.pol) in
            let proms = List.filter (fun (j, _) -> j <> i) v.v_proms in
            Some
              {
                v_know = know;
                v_reserved = reserved;
                v_occ = occ;
                v_proms = proms;
                v_state = apply_promises t occ proms;
                v_code =
                  (if t.status_memo = None then 0
                   else set_field v.v_code i (2 + pol_bit l.Literal.pol));
                v_top = seqno;
                v_occurred = v.v_occurred lor (1 lsl i);
              })
  | Promised l -> (
      match index t l.Literal.sym with
      | i when i >= 0 && v.v_occurred land (1 lsl i) = 0 ->
          if List.exists (fun (j, _) -> j = i) v.v_proms then None
          else
            let proms = insert_promise i l v.v_proms in
            Some
              {
                v with
                v_know = know;
                v_reserved = reserved;
                v_proms = proms;
                v_state = apply_promises t v.v_occ proms;
                v_code =
                  (if t.status_memo = None then 0
                   else
                     set_field v.v_code i
                       (4 + pol_bit l.Literal.pol + (2 * code_field v.v_code i)));
              }
      | _ ->
          (* outside the alphabet, or decided: the knowledge ignores it *)
          Some { v with v_know = know; v_reserved = reserved })
  | (Reserved sym | Released sym) as input -> (
      let held = match input with Reserved _ -> 2 | _ -> 0 in
      match index t sym with
      | i when i >= 0 && t.status_memo <> None ->
          let f = code_field v.v_code i in
          let f =
            if f <= 1 then held / 2 else if f >= 4 then (f land 5) lor held else f
          in
          Some
            {
              v with
              v_know = know;
              v_reserved = reserved;
              v_code = set_field v.v_code i f;
            }
      | _ -> Some { v with v_know = know; v_reserved = reserved })

let step_view t v ~reserved know input =
  match step t v ~reserved know input with
  | None -> view t ~reserved know
  | Some v' ->
      if !auditing then begin
        incr audit_views;
        if not (view_equal v' (view t ~reserved know)) then
          incr audit_view_mismatches
      end;
      v'

(* Look (state, code) up; on a miss evaluate the compiled guard under
   the knowledge the caller describes, and remember it. *)
let memo_status t s code ~reserved know =
  match t.status_memo with
  | Some m when active () -> (
      let key = (code lsl t.state_bits) lor s in
      match Int_table.find m key with
      | st ->
          if !auditing then begin
            incr audit_hits;
            if Knowledge.status ~reserved (know ()) t.guard <> st then
              incr audit_mismatches
          end;
          st
      | exception Not_found ->
          let st = Knowledge.status ~reserved (know ()) t.guard in
          incr memo_misses;
          Int_table.replace m key st;
          st)
  | _ -> symbolic_status ~reserved (know ()) t.guard

let view_status t v =
  match verdict t v.v_state with
  | Enabled -> Knowledge.True
  | Violated -> Knowledge.False
  | Open ->
      memo_status t v.v_state v.v_code ~reserved:v.v_reserved (fun () ->
          v.v_know)

(* The status after hypothetically recording [lits] on top of the view.
   One literal on a symbol the knowledge leaves open steps the cached
   occurrence prefix (an occurrence stamped [max_int] replays last
   among occurrences) or joins the promises in their replay order;
   every other case rebuilds the knowledge and replays it in full, so
   the memo key is always exactly that of the hypothetical knowledge. *)
let status_after ~occurred t v lits =
  let record k (l : Literal.t) =
    if occurred then Knowledge.occurred l ~seqno:max_int k
    else Knowledge.promised l k
  in
  let rebuild () = List.fold_left record v.v_know lits in
  let reserved = v.v_reserved in
  if not (memo_live t) then symbolic_status ~reserved (rebuild ()) t.guard
  else
    match lits with
    | [ (l : Literal.t) ] -> (
        match index t l.Literal.sym with
        | -1 when not (occurred && Knowledge.decided v.v_know l.Literal.sym) ->
            (* outside the alphabet: neither state nor code moves *)
            memo_status t v.v_state v.v_code ~reserved rebuild
        | i when i >= 0 && code_field v.v_code i <= 1 ->
            let pol = match l.Literal.pol with Literal.Pos -> 0 | Literal.Neg -> 1 in
            let s, field =
              if occurred then
                ( apply_promises t
                    (t.next.((v.v_occ * t.width) + (4 * i) + occ_code l.Literal.pol))
                    v.v_proms,
                  2 + pol )
              else
                ( apply_promises t v.v_occ (insert_promise i l v.v_proms),
                  4 + pol + (2 * code_field v.v_code i) )
            in
            memo_status t s (set_field v.v_code i field) ~reserved rebuild
        | _ ->
            let v' = view t ~reserved (rebuild ()) in
            memo_status t v'.v_state v'.v_code ~reserved (fun () -> v'.v_know))
    | _ ->
        let v' = view t ~reserved (rebuild ()) in
        memo_status t v'.v_state v'.v_code ~reserved (fun () -> v'.v_know)

let status_if_occurred t v lits = status_after ~occurred:true t v lits
let status_if_promised t v lits = status_after ~occurred:false t v lits

(* --- pursuit memo --------------------------------------------------------

   A parked attempt with an [Unknown] guard pursues two things: the
   reservations [Knowledge.needs] asks for, and promise requests to
   every undecided literal whose occurrence or promise would make the
   guard [True].  Both are functions of the guard's per-symbol code and
   of the pending status of each of its pending terms:

   - [needs] reads a symbol only through [mask_status] and its
     [Promised] test, which see exactly what the code records
     (occurred ±, promised ± and reserved or not, undecided and
     reserved or not), and reads the occurrence order only through
     [pending_status];
   - a probe adds one undecided literal [l] (an occurrence at seqno
     [max_int], or a promise) and evaluates [Knowledge.status], which
     reads the same two things.  A promise changes no pending status.
     An occurrence of [l] last changes a term's status by the term
     alone: [True] and [False] stay; [Unknown] (the occurred literals
     are a prefix of the term, in order, and the code says which) goes
     to [True] or stays [Unknown] if [l] is the next literal, stays
     [Unknown] if [l]'s symbol is not in the term, and goes to [False]
     otherwise.

   So the key is the code and one 2-bit status per pending term.  The
   table state after the occurrences is not a key: states are
   canonical residuals, so occurrence orders that [pending_status]
   tells apart may reach the same state.  [audit_status_memo] checks
   every hit. *)

let derive_pursuit ~reserved know g syms enables =
  let reserves =
    List.sort_uniq Symbol.compare
      (List.concat_map
         (fun n -> n.Knowledge.reserves)
         (Knowledge.needs ~reserved know g))
  in
  let enabling =
    List.concat_map
      (fun sym ->
        if Knowledge.decided know sym then []
        else List.filter enables [ Literal.pos sym; Literal.neg sym ])
      syms
  in
  { reserves; enabling }

(* The probe of one literal, by the status [eval] gives a knowledge. *)
let enables_by eval know (l : Literal.t) =
  eval (Knowledge.occurred l ~seqno:max_int know) = Knowledge.True
  || eval (Knowledge.promised l know) = Knowledge.True

let symbolic_pursuit ~reserved know g =
  derive_pursuit ~reserved know g
    (Symbol.Set.elements (Guard.symbols g))
    (enables_by (fun k -> symbolic_status ~reserved k g) know)

let pursuit_memo t =
  match t.pursuit_memo with
  | Some _ as m -> m
  | None when t.status_memo = None -> None
  | None ->
      let terms =
        Array.of_list
          (List.sort_uniq (List.compare Literal.compare)
             (List.concat_map (fun p -> p.Guard.pending) t.guard))
      in
      let fits =
        (code_bits * Array.length t.syms) + (2 * Array.length terms) <= 62
      in
      let m =
        { terms; pursuits = (if fits then Some (new_memo ()) else None) }
      in
      t.pursuit_memo <- Some m;
      Some m

let pending_code know tau =
  match Knowledge.pending_status know tau with
  | Knowledge.Unknown -> 0
  | Knowledge.True -> 1
  | Knowledge.False -> 2

let pursuit t v =
  let reserved = v.v_reserved and know = v.v_know and g = t.guard in
  match if active () then pursuit_memo t else None with
  | Some { terms; pursuits = Some m } -> (
      let key =
        Array.fold_left
          (fun key tau -> (key lsl 2) lor pending_code know tau)
          v.v_code terms
      in
      match Int_table.find m key with
      | pu ->
          if !auditing then begin
            incr audit_pursuit_hits;
            let fresh =
              derive_pursuit ~reserved know g (Array.to_list t.syms)
                (enables_by (fun k -> Knowledge.status ~reserved k g) know)
            in
            if fresh <> pu then incr audit_pursuit_mismatches
          end;
          pu
      | exception Not_found ->
          let pu =
            derive_pursuit ~reserved know g (Array.to_list t.syms) (fun l ->
                status_after ~occurred:true t v [ l ] = Knowledge.True
                || status_after ~occurred:false t v [ l ] = Knowledge.True)
          in
          incr pursuit_misses;
          Int_table.replace m key pu;
          pu)
  | _ -> symbolic_pursuit ~reserved know g

let memo_entries select =
  Hashtbl.fold
    (fun _ r n ->
      match r with
      | Some t -> (
          match select t with Some m -> n + Int_table.length m | None -> n)
      | None -> n)
    memo 0

let stats () =
  [
    ("compiled_guards", Hashtbl.length memo);
    ("compiled_states", !compiled_states);
    ("renamed_guards", !renamed_guards);
    ("renamed_states", !renamed_states);
    ("uncompilable", !fallbacks);
    ("status_memo_entries", memo_entries (fun t -> t.status_memo));
    ("status_memo_misses", !memo_misses);
    ("status_symbolic", !symbolic_evals);
    ( "pursuit_memo_entries",
      memo_entries (fun t -> Option.bind t.pursuit_memo (fun p -> p.pursuits))
    );
    ("pursuit_memo_misses", !pursuit_misses);
  ]

module For_testing = struct
  let guard_of t s = (Lazy.force t.residuals).(s)
  let compile = compile
  let step_promised = step_promised
  let view_equal = view_equal
  let alphabet t = Array.to_list t.syms

  (* Canonical fingerprint of the flattened table (alphabet, transitions,
     verdict bitsets), for pinned on/off regression tests. *)
  let fingerprint t =
    let open Fingerprint in
    let h = init in
    let h = int h t.num_states in
    let h =
      Array.fold_left (fun h sym -> string h (Symbol.name sym)) h t.syms
    in
    let h = Array.fold_left int h t.next in
    let h = string h (Bytes.to_string t.enabled) in
    string h (Bytes.to_string t.violated)

  type audit = {
    hits_checked : int;
    mismatches : int;
    pursuit_hits_checked : int;
    pursuit_mismatches : int;
    views_checked : int;
    view_mismatches : int;
  }

  let audit_status_memo f =
    auditing := true;
    audit_hits := 0;
    audit_mismatches := 0;
    audit_pursuit_hits := 0;
    audit_pursuit_mismatches := 0;
    audit_views := 0;
    audit_view_mismatches := 0;
    let r = Fun.protect ~finally:(fun () -> auditing := false) f in
    ( r,
      {
        hits_checked = !audit_hits;
        mismatches = !audit_mismatches;
        pursuit_hits_checked = !audit_pursuit_hits;
        pursuit_mismatches = !audit_pursuit_mismatches;
        views_checked = !audit_views;
        view_mismatches = !audit_view_mismatches;
      } )
end
