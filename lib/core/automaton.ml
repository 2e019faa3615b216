type state = int

type t = {
  states : Nf.t array; (* index = state id; 0 = initial *)
  alphabet : Literal.t list;
  lit_index : int Literal.Tbl.t; (* literal -> position in [alphabet] *)
  edges : state array array; (* edges.(s).(i) = step on alphabet.(i) *)
  accepting : bool array;
  dead : bool array;
  completable : bool array;
  mutable required : Literal.Set.t array option;
      (* lazily-filled cache of {!required_literals} for every state:
         the fixpoint already visits all states, so the first query pays
         for the whole automaton and later per-decision queries are an
         array read *)
}

let num_states t = Array.length t.states
let alphabet t = t.alphabet

let index_in alphabet l =
  let rec go i = function
    | [] -> None
    | x :: rest -> if Literal.equal x l then Some i else go (i + 1) rest
  in
  go 0 alphabet

let make_lit_index alphabet =
  let tbl = Literal.Tbl.create 32 in
  List.iteri (fun i l -> Literal.Tbl.replace tbl l i) alphabet;
  tbl

let step t s l =
  match Literal.Tbl.find_opt t.lit_index l with
  | None -> s
  | Some i -> t.edges.(s).(i)

let run t u = List.fold_left (step t) 0 u
let is_accepting t s = t.accepting.(s)
let is_dead t s = t.dead.(s)
let can_complete t s = t.completable.(s)

(* Backward completability fixpoint, shared by both builds. *)
let finish states alphabet edge_tbl ~accepting ~dead =
  let n = Array.length states in
  (* Backward reachability from accepting states. *)
  let completable = Array.copy accepting in
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to n - 1 do
      if not completable.(s) then
        if Array.exists (fun s' -> completable.(s')) edge_tbl.(s) then begin
          completable.(s) <- true;
          changed := true
        end
    done
  done;
  {
    states;
    alphabet;
    lit_index = make_lit_index alphabet;
    edges = edge_tbl;
    accepting;
    dead;
    completable;
    required = None;
  }

(* State identity, both builds: semantic over the dependency's own
   alphabet when it is small enough to enumerate; the syntactic
   canonical form otherwise (sound — at worst a language is represented
   by more than one state). *)
let small_alphabet alpha_syms = Symbol.Set.cardinal alpha_syms <= 4

let build_naive d =
  let alpha_syms = Expr.symbols d in
  let alphabet = Literal.Set.elements (Expr.literals d) in
  let d0 = Nf.of_expr d in
  let small = small_alphabet alpha_syms in
  let same a b =
    Nf.equal a b
    || (small && Equiv.equal ~alphabet:alpha_syms (Nf.to_expr a) (Nf.to_expr b))
  in
  let states = ref [ d0 ] in
  let nstates = ref 1 in
  let find_or_add nf_ =
    let rec go i = function
      | [] ->
          states := !states @ [ nf_ ];
          incr nstates;
          (!nstates - 1, true)
      | x :: rest -> if same x nf_ then (i, false) else go (i + 1) rest
    in
    go 0 !states
  in
  let edges = ref [] in
  let rec explore frontier =
    match frontier with
    | [] -> ()
    | s :: rest ->
        let nf_s = List.nth !states s in
        let new_frontier =
          List.fold_left
            (fun acc l ->
              let nf' = Residue.nf_naive nf_s l in
              let s', fresh = find_or_add nf' in
              edges := (s, l, s') :: !edges;
              if fresh then s' :: acc else acc)
            [] alphabet
        in
        explore (rest @ List.rev new_frontier)
  in
  explore [ 0 ];
  let states = Array.of_list !states in
  let n = Array.length states in
  let k = List.length alphabet in
  let edge_tbl = Array.init n (fun _ -> Array.make k 0) in
  List.iter
    (fun (s, l, s') ->
      match index_in alphabet l with
      | Some i -> edge_tbl.(s).(i) <- s'
      | None -> assert false)
    !edges;
  let accepting =
    Array.map
      (fun nf_ ->
        Nf.is_top nf_
        || (small && Equiv.is_top ~alphabet:alpha_syms (Nf.to_expr nf_)))
      states
  in
  let dead =
    Array.map
      (fun nf_ ->
        Nf.is_zero nf_
        || (small && Equiv.is_zero ~alphabet:alpha_syms (Nf.to_expr nf_)))
      states
  in
  finish states alphabet edge_tbl ~accepting ~dead

(* The denotation signature of an expression over a small alphabet: bit
   [i] says whether the [i]-th trace of the universe satisfies it.  Two
   expressions are equivalent over the alphabet exactly when their
   signatures are equal, so one table probe replaces a comparison with
   every earlier state.  Each trace is indexed once per build. *)
let signer alpha_syms =
  let universe =
    Array.of_list (List.map Semantics.index (Universe.traces alpha_syms))
  in
  let n = Array.length universe in
  fun e ->
    let b = Bytes.make ((n + 7) / 8) '\000' in
    Array.iteri
      (fun i ix ->
        if Semantics.holds ix e then
          Bytes.set b (i lsr 3)
            (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7)))))
      universe;
    Bytes.unsafe_to_string b

(* Fast build: states dedup through a table keyed on the interned
   canonical form, frontier as a FIFO queue, edge rows written directly.
   Produces the same automaton (states, numbering, edges, flags) as
   {!build_naive}: the queue visits states in discovery order exactly
   like the naive frontier append, and because states are pairwise
   non-equivalent, a hit in either table is necessarily the unique —
   hence first — match the naive linear scan would find.  On a
   structural miss with a small alphabet the state's denotation
   signature is probed, and the interned id recorded as an alias so
   every later structural equal is O(1).  The flags read the
   signatures too: accepting is all ones (⊤), dead all zeros (0). *)
let build_fast ~alpha_syms ~alphabet d =
  let alpha = List.mapi (fun i l -> (i, l, Intern.literal l)) alphabet in
  let d0 = Nf.of_expr d in
  let sign =
    if small_alphabet alpha_syms then Some (signer alpha_syms) else None
  in
  let top, zero =
    match sign with
    | Some sign -> (sign Expr.Top, sign Expr.Zero)
    | None -> ("", "")
  in
  let k = List.length alphabet in
  let n = ref 0 in
  (* Each state's normal form and flags, newest first. *)
  let rev_states = ref [] in
  let by_id : (Intern.id, state) Hashtbl.t = Hashtbl.create 64 in
  let by_sig : (string, state) Hashtbl.t = Hashtbl.create 64 in
  (* The frontier holds each state's normal form with its interned id,
     so residuation probes its memo without re-walking the state's
     structure. *)
  let queue = Queue.create () in
  let add_state nf_ id accepting dead =
    let s = !n in
    incr n;
    rev_states := (nf_, accepting, dead) :: !rev_states;
    Hashtbl.replace by_id id s;
    Queue.add (nf_, id) queue;
    s
  in
  let find_or_add nf_ id =
    match Hashtbl.find_opt by_id id with
    | Some s -> s
    | None -> (
        match sign with
        | None -> add_state nf_ id (Nf.is_top nf_) (Nf.is_zero nf_)
        | Some sign -> (
            let sg = sign (Nf.to_expr nf_) in
            match Hashtbl.find_opt by_sig sg with
            | Some s ->
                (* Alias: this interned form denotes an existing state. *)
                Hashtbl.replace by_id id s;
                s
            | None ->
                let s = add_state nf_ id (sg = top) (sg = zero) in
                Hashtbl.replace by_sig sg s;
                s))
  in
  ignore (find_or_add d0 (Intern.nf d0));
  let rows_rev = ref [] in
  (* FIFO processing = states handled in id order, so rows accumulate in
     state order. *)
  while not (Queue.is_empty queue) do
    let nf_s, s_id = Queue.pop queue in
    let row = Array.make k 0 in
    List.iter
      (fun (i, l, l_id) ->
        let r, r_id = Residue.nf_interned nf_s s_id l l_id in
        row.(i) <- find_or_add r r_id)
      alpha;
    rows_rev := row :: !rows_rev
  done;
  let states = Array.of_list (List.rev !rev_states) in
  finish
    (Array.map (fun (nf_, _, _) -> nf_) states)
    alphabet
    (Array.of_list (List.rev !rows_rev))
    ~accepting:(Array.map (fun (_, a, _) -> a) states)
    ~dead:(Array.map (fun (_, _, d) -> d) states)

(* The automaton of a renamed dependency, from the original's: under an
   order-preserving renaming the sorted alphabet, the breadth-first
   numbering and every canonical form carry over position by position,
   so only the symbolic parts are renamed.  The edge and flag arrays are
   immutable and shared; the [required] cache starts empty. *)
let rename f a =
  let alphabet = List.map (Literal.rename f) a.alphabet in
  {
    a with
    states = Array.map (Nf.rename f) a.states;
    alphabet;
    lit_index = make_lit_index alphabet;
    required = None;
  }

(* One automaton per dependency, keyed structurally: every run of a
   workflow asks for the same demand automata.  The value is immutable
   apart from the [required] cache, whose contents depend only on the
   automaton, so sharing it between callers is invisible.  Behind the
   exact memo, one per shape (see {!Shape}): the first dependency of a
   shape is built, with its sorted symbols kept beside it, and every
   later one renames that automaton. *)
let memo : t Expr.Tbl.t = Expr.Tbl.create 64
let shapes : (Symbol.t array * t) Expr.Tbl.t = Expr.Tbl.create 64
let built = ref 0
let renamed = ref 0

let () =
  Intern.register_clearer (fun () ->
      Expr.Tbl.reset memo;
      Expr.Tbl.reset shapes;
      built := 0;
      renamed := 0)

let build_shape d =
  let lits = Expr.literals d in
  let alpha_syms =
    Literal.Set.fold
      (fun l acc -> Symbol.Set.add (Literal.symbol l) acc)
      lits Symbol.Set.empty
  in
  let syms = Array.of_list (Symbol.Set.elements alpha_syms) in
  let key = Expr.rename (Shape.canonical syms) d in
  match Expr.Tbl.find_opt shapes key with
  | Some (from, a) ->
      incr renamed;
      rename (Shape.between from syms) a
  | None ->
      let a = build_fast ~alpha_syms ~alphabet:(Literal.Set.elements lits) d in
      incr built;
      Expr.Tbl.add shapes key (syms, a);
      a

let build d =
  if not (Intern.enabled ()) then build_naive d
  else
    match Expr.Tbl.find_opt memo d with
    | Some a -> a
    | None ->
        let a = build_shape d in
        Expr.Tbl.add memo d a;
        a

let transitions t =
  let acc = ref [] in
  Array.iteri
    (fun s row ->
      List.iteri (fun i l -> acc := (s, l, row.(i)) :: !acc) t.alphabet)
    t.edges;
  List.rev !acc

let accepted_paths t =
  (* Depth-first enumeration of symbol-distinct paths reaching ⊤. *)
  let acc = ref [] in
  let rec go s path used =
    if is_accepting t s then acc := List.rev path :: !acc;
    List.iter
      (fun l ->
        let sym = Literal.symbol l in
        if not (Symbol.Set.mem sym used) then
          let s' = step t s l in
          if not (is_dead t s') then go s' (l :: path) (Symbol.Set.add sym used))
      t.alphabet
  in
  go 0 [] Symbol.Set.empty;
  List.sort_uniq Trace.compare !acc

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun s nf_ ->
      let tag =
        if t.accepting.(s) then " (accept)"
        else if t.dead.(s) then " (dead)"
        else ""
      in
      Format.fprintf ppf "state %d%s: %a@," s tag Nf.pp nf_;
      List.iteri
        (fun i l ->
          let s' = t.edges.(s).(i) in
          if s' <> s then Format.fprintf ppf "  --%a--> %d@," Literal.pp l s')
        t.alphabet)
    t.states;
  Format.fprintf ppf "@]"

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph scheduler {\n  rankdir=LR;\n";
  Array.iteri
    (fun s nf_ ->
      let shape =
        if t.accepting.(s) then "doublecircle"
        else if t.dead.(s) then "box"
        else "circle"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d [shape=%s,label=\"%s\"];\n" s shape
           (String.escaped (Format.asprintf "%a" Nf.pp nf_))))
    t.states;
  List.iter
    (fun (s, l, s') ->
      if s <> s' then
        Buffer.add_string buf
          (Printf.sprintf "  %d -> %d [label=\"%s\"];\n" s s'
             (String.escaped (Literal.to_string l))))
    (transitions t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let compute_required t =
  let n = Array.length t.states in
  let all = Literal.Set.of_list t.alphabet in
  (* Greatest fixpoint: req(accepting) = ∅;
     req(s) = ⋂ over edges to completable s' of ({l} ∪ req(s')). *)
  let req = Array.make n all in
  Array.iteri (fun s acc -> if acc then req.(s) <- Literal.Set.empty) t.accepting;
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to n - 1 do
      if not t.accepting.(s) then begin
        let meet = ref None in
        List.iteri
          (fun i l ->
            let s' = t.edges.(s).(i) in
            if t.completable.(s') then begin
              let through = Literal.Set.add l req.(s') in
              meet :=
                Some
                  (match !meet with
                  | None -> through
                  | Some m -> Literal.Set.inter m through)
            end)
          t.alphabet;
        match !meet with
        | None -> ()
        | Some m ->
            if not (Literal.Set.equal m req.(s)) then begin
              req.(s) <- m;
              changed := true
            end
      end
    done
  done;
  req

let required_literals t s0 =
  let req =
    match t.required with
    | Some req -> req
    | None ->
        let req = compute_required t in
        t.required <- Some req;
        req
  in
  req.(s0)

module For_testing = struct
  let build_naive = build_naive
  let stats () = [ ("built", !built); ("renamed", !renamed) ]
  let initial _ = 0
  let state_nf t s = t.states.(s)
  let state_expr t s = Nf.to_expr t.states.(s)
  let is_accepting = is_accepting
  let transitions = transitions
end
