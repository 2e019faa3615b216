(* Compiled guard tables (Gtable): unit pins on a chain guard; the
   differential property against the symbolic assimilation engine
   (walking the table step by step must land on exactly the residual
   guard the naive fold computes, with matching verdicts); the status
   memo against Knowledge.status; and the model-checker state-count
   invariance: switching tables off must not change what wfmc explores,
   because tables only short-circuit evaluations whose answers they
   share with the symbolic path. *)

open Wf_core
open Helpers
module Mc = Wf_check.Mc

let spec_dir =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) "../specs";
      "../specs";
      "specs";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> "../specs"

let load name =
  (Wf_lang.Elaborate.load_file (Filename.concat spec_dir name))
    .Wf_lang.Elaborate.def

let chain_guard () =
  (* Guard of g in the chain e.f.g: e and f must both have occurred. *)
  Synth.guard (Expr.seq_all [ e; f; g ]) (lit "g")

let compile_exn g =
  match Gtable.For_testing.compile g with
  | Some t -> t
  | None -> Alcotest.fail "chain guard should compile"

(* --- Unit pins ----------------------------------------------------------- *)

let test_chain_walk () =
  let tbl = compile_exn (chain_guard ()) in
  let s0 = Gtable.initial tbl in
  checkb "initial state is open" (Gtable.verdict tbl s0 = Gtable.Open);
  let s = Gtable.step_occurred tbl s0 (lit "e") in
  checkb "after e still open" (Gtable.verdict tbl s = Gtable.Open);
  let s = Gtable.step_occurred tbl s (lit "f") in
  checkb "after e,f enabled" (Gtable.verdict tbl s = Gtable.Enabled);
  let v = Gtable.step_occurred tbl s0 (lit "~e") in
  checkb "after ~e violated" (Gtable.verdict tbl v = Gtable.Violated);
  checkb "decisive states are sinks"
    (Gtable.verdict tbl (Gtable.step_occurred tbl v (lit "f"))
    = Gtable.Violated)

let test_foreign_noop () =
  let tbl = compile_exn (chain_guard ()) in
  let s0 = Gtable.initial tbl in
  checkb "z outside alphabet"
    (not
       (List.exists
          (Symbol.equal (Literal.symbol (lit "z")))
          (Gtable.For_testing.alphabet tbl)));
  check Alcotest.int "occurrence of z is a no-op" s0
    (Gtable.step_occurred tbl s0 (lit "z"));
  check Alcotest.int "promise of z is a no-op" s0
    (Gtable.For_testing.step_promised tbl s0 (lit "z"))

let test_switch_and_memo () =
  let g = chain_guard () in
  Gtable.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Gtable.set_enabled true)
    (fun () ->
      checkb "lookup is None while disabled" (Gtable.lookup g = None));
  match (Gtable.lookup g, Gtable.lookup g) with
  | Some a, Some b -> checkb "lookup memoizes per guard" (a == b)
  | _ -> Alcotest.fail "lookup should compile the chain guard"

let test_compile_bounds () =
  checkb "state bound respected"
    (Gtable.For_testing.compile ~max_states:1 (chain_guard ()) = None);
  let stats = Gtable.stats () in
  List.iter
    (fun k -> checkb (k ^ " reported") (List.mem_assoc k stats))
    [ "compiled_guards"; "compiled_states"; "uncompilable" ]

let test_fingerprint_stable () =
  let t1 = compile_exn (chain_guard ()) in
  let t2 = compile_exn (chain_guard ()) in
  check Alcotest.int "recompilation reproduces the fingerprint"
    (Gtable.For_testing.fingerprint t1) (Gtable.For_testing.fingerprint t2)

(* --- Differential properties --------------------------------------------- *)

(* A delivery script: occurrence/promise announcements over the same
   three-symbol pool the random expressions draw from. *)
let gen_script =
  QCheck2.Gen.(
    pair gen_expr (list_size (int_bound 8) (pair bool gen_literal)))

(* Exact differential: over the table's own alphabet the walk must
   reproduce the naive assimilation fold literally — compile builds
   transitions with the same functions, so any gap is a real bug — and
   its verdict must be the fold's. *)
let differential =
  qprop ~count:150 "table walk = naive fold, verdicts agree"
    gen_script
    (fun (d, steps) ->
      Literal.Set.for_all
        (fun l ->
          let g0 = Synth.guard d l in
          match Gtable.For_testing.compile g0 with
          | None -> true
          | Some tbl ->
              let steps =
                List.filter
                  (fun (_, x) ->
                    List.exists
                      (Symbol.equal (Literal.symbol x))
                      (Gtable.For_testing.alphabet tbl))
                  steps
              in
              let g, s =
                List.fold_left
                  (fun (g, s) (promise, x) ->
                    if promise then
                      ( Guard.assimilate_promise x g,
                        Gtable.For_testing.step_promised tbl s x )
                    else
                      ( Guard.assimilate_occurred x g,
                        Gtable.step_occurred tbl s x ))
                  (g0, Gtable.initial tbl) steps
              in
              Guard.equal (Gtable.For_testing.guard_of tbl s) g
              && Gtable.verdict tbl s
                 = (if Guard.is_true g then Gtable.Enabled
                    else if Guard.is_false g then Gtable.Violated
                    else Gtable.Open))
        (Expr.literals d))

(* --- Status memo ----------------------------------------------------------- *)

(* A knowledge script in seqno order over the three-symbol pool, plus a
   reserved subset drawn independently, so a symbol can be promised
   and reserved at once. *)
let gen_memo_case =
  QCheck2.Gen.(
    triple gen_expr
      (list_size (int_bound 8) (pair bool gen_literal))
      (list_size (int_bound 3) (oneofl symbol_names)))

let knowledge_prefixes steps =
  let _, _, prefixes =
    List.fold_left
      (fun (k, n, acc) (promise, x) ->
        let k, n =
          if promise then (Knowledge.promised x k, n)
          else if Knowledge.decided k (Literal.symbol x) then (k, n)
          else (Knowledge.occurred x ~seqno:n k, n + 1)
        in
        (k, n, k :: acc))
      (Knowledge.empty, 0, [ Knowledge.empty ])
      steps
  in
  prefixes

(* [f] applied to the hypothetical knowledge, or [None] where recording
   the literals contradicts an occurrence (both paths raise there). *)
let guarded f = try Some (f ()) with Invalid_argument _ -> None

(* The memoized status equals [Knowledge.status] for the view itself and
   for every hypothetical occurrence or promise of one or two pool
   literals, at every prefix of the script, and every memo hit on the
   way passes the audit. *)
let memo_matches_symbolic =
  qprop ~count:150 "status memo = Knowledge.status (views and probes)"
    gen_memo_case (fun (d, steps, reserved) ->
      let reserved =
        Symbol.Set.of_list (List.map (fun n -> Literal.symbol (lit n)) reserved)
      in
      let pool = List.concat_map (fun n -> [ lit n; lit ("~" ^ n) ]) symbol_names in
      let offers = [] :: List.map (fun l -> [ l ]) pool @ [ [ lit "e"; lit "~f" ] ] in
      let ok, audit =
        Gtable.For_testing.audit_status_memo @@ fun () ->
        Literal.Set.for_all
          (fun l ->
            let g = Synth.guard d l in
            match Gtable.lookup g with
            | None -> true
            | Some tbl ->
                List.for_all
                  (fun k ->
                    let v = Gtable.view tbl ~reserved k in
                    Gtable.view_status tbl v = Knowledge.status ~reserved k g
                    && List.for_all
                         (fun lits ->
                           let sym record table =
                             guarded (fun () ->
                                 Knowledge.status ~reserved
                                   (List.fold_left record k lits)
                                   g)
                             = guarded (fun () -> table tbl v lits)
                           in
                           sym
                             (fun k o -> Knowledge.occurred o ~seqno:max_int k)
                             Gtable.status_if_occurred
                           && sym
                                (fun k o -> Knowledge.promised o k)
                                Gtable.status_if_promised)
                         offers)
                  (knowledge_prefixes steps))
          (Expr.literals d)
      in
      ok && audit.Gtable.For_testing.mismatches = 0)

(* The memoized pursuit equals the symbolic one at every prefix of the
   script, with and without reservations, and every pursuit-memo hit on
   the way passes the audit. *)
let pursuit_matches_symbolic =
  qprop ~count:150 "pursuit memo = symbolic pursuit (views)" gen_memo_case
    (fun (d, steps, reserved) ->
      let reserved =
        Symbol.Set.of_list (List.map (fun n -> Literal.symbol (lit n)) reserved)
      in
      let ok, audit =
        Gtable.For_testing.audit_status_memo @@ fun () ->
        Literal.Set.for_all
          (fun l ->
            let g = Synth.guard d l in
            match Gtable.lookup g with
            | None -> true
            | Some tbl ->
                List.for_all
                  (fun k ->
                    List.for_all
                      (fun reserved ->
                        Gtable.pursuit tbl (Gtable.view tbl ~reserved k)
                        = Gtable.symbolic_pursuit ~reserved k g)
                      [ Symbol.Set.empty; reserved ])
                  (knowledge_prefixes steps))
          (Expr.literals d)
      in
      ok && audit.Gtable.For_testing.pursuit_mismatches = 0)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map (List.cons x) (permutations (List.filter (( != ) x) l)))
        l

(* Every knowledge over [syms]: each symbol undecided, promised ± or
   occurred ±, with the occurrences in every order. *)
let all_knowledges syms =
  let fates =
    List.fold_left
      (fun acc sym ->
        List.concat_map
          (fun (k, occ) ->
            [
              (k, occ);
              (Knowledge.promised (Literal.pos sym) k, occ);
              (Knowledge.promised (Literal.neg sym) k, occ);
              (k, Literal.pos sym :: occ);
              (k, Literal.neg sym :: occ);
            ])
          acc)
      [ (Knowledge.empty, []) ]
      syms
  in
  List.concat_map
    (fun (k, occ) ->
      List.map
        (fun order ->
          fst
            (List.fold_left
               (fun (k, n) l -> (Knowledge.occurred l ~seqno:n k, n + 1))
               (k, 0) order))
        (permutations occ))
    fates

let subsets syms =
  List.fold_left
    (fun acc s -> acc @ List.map (Symbol.Set.add s) acc)
    [ Symbol.Set.empty ] syms

(* The pursuit memo's key claim, checked exhaustively per guard: every
   knowledge over the guard's symbols (in every occurrence order) and
   every reservation subset gets the symbolic pursuit.  The first
   knowledge of each key fills the entry and every later one with the
   same key is answered from it, so a key that merges knowledges the
   symbolic pursuit tells apart fails here. *)
let pursuit_agrees_everywhere g =
  let ok, audit =
    Gtable.For_testing.audit_status_memo @@ fun () ->
    match Gtable.lookup g with
    | None -> true
    | Some tbl ->
        let syms = Symbol.Set.elements (Guard.symbols g) in
        List.for_all
          (fun k ->
            List.for_all
              (fun reserved ->
                Gtable.pursuit tbl (Gtable.view tbl ~reserved k)
                = Gtable.symbolic_pursuit ~reserved k g)
              (subsets syms))
          (all_knowledges syms)
  in
  ok && audit.Gtable.For_testing.pursuit_mismatches = 0

(* Occurrence order alone can change a pursuit: [◇(e·f) ∧ ¬h] asks to
   reserve [h] once [e] then [f] occurred, and nothing once [f] then
   [e] did, with the same per-symbol code. *)
let test_pursuit_order () =
  let g =
    Guard.conj (Guard.will_term [ lit "e"; lit "f" ]) (Guard.hasnt (lit "h"))
  in
  checkb "◇(e·f) ∧ ¬h" (pursuit_agrees_everywhere g)

let pursuit_exhaustive =
  qprop ~count:200 "pursuit memo = symbolic pursuit (every knowledge)"
    (gen_expr_over ~size:12 [ "e"; "f"; "g"; "h" ])
    (fun d ->
      Literal.Set.for_all
        (fun l -> pursuit_agrees_everywhere (Synth.guard d l))
        (Expr.literals d))

let stat name = List.assoc name (Gtable.stats ())

(* A guard over more symbols than a code packs (the first event's guard
   in a 17-event chain: 16 symbols, 2 states) compiles but answers its
   Open states symbolically; a narrow
   guard fills one memo entry per distinct (code, state) and answers
   repeats from it.  With tables off nothing is memoized. *)
let test_memo_counters () =
  Intern.clear_memos ();
  let chain = List.init 17 (fun i -> lit (Printf.sprintf "w%02d" i)) in
  let wide =
    Synth.guard (Expr.seq_all (List.map Expr.atom chain)) (List.hd chain)
  in
  let tbl =
    match Gtable.lookup wide with
    | Some t -> t
    | None -> Alcotest.fail "the wide chain guard should compile"
  in
  check Alcotest.int "wide alphabet" 16 (List.length (Gtable.For_testing.alphabet tbl));
  let v = Gtable.view tbl ~reserved:Symbol.Set.empty Knowledge.empty in
  checkb "wide guard undecided" (Gtable.view_status tbl v = Knowledge.Unknown);
  check Alcotest.int "wide guard went symbolic" 1 (stat "status_symbolic");
  check Alcotest.int "wide guard made no entry" 0 (stat "status_memo_entries");
  let g = Synth.guard (Expr.seq_all [ e; f; g ]) (lit "g") in
  let tbl =
    match Gtable.lookup g with
    | Some t -> t
    | None -> Alcotest.fail "the chain guard should compile"
  in
  let know = Knowledge.occurred (lit "e") ~seqno:1 Knowledge.empty in
  let reserved = Symbol.Set.singleton (Literal.symbol (lit "f")) in
  let v = Gtable.view tbl ~reserved know in
  let first = Gtable.view_status tbl v in
  let again, audit =
    Gtable.For_testing.audit_status_memo (fun () ->
        Gtable.view_status tbl (Gtable.view tbl ~reserved know))
  in
  checkb "repeat answers alike" (first = again);
  check Alcotest.int "the repeat is an audited hit" 1 audit.Gtable.For_testing.hits_checked;
  check Alcotest.int "audit is clean" 0 audit.Gtable.For_testing.mismatches;
  check Alcotest.int "one entry" 1 (stat "status_memo_entries");
  check Alcotest.int "one miss" 1 (stat "status_memo_misses");
  check Alcotest.int "no new symbolic fallback" 1 (stat "status_symbolic");
  ignore (Gtable.status_if_occurred tbl v [ lit "f" ]);
  check Alcotest.int "a decisive probe state is memoized too" 2
    (stat "status_memo_entries");
  (* The pursuit memo: one entry per (code, pending statuses);
     the repeat is an audited hit and evaluates nothing. *)
  let pu = Gtable.pursuit tbl v in
  check Alcotest.int "one pursuit entry" 1 (stat "pursuit_memo_entries");
  check Alcotest.int "one pursuit miss" 1 (stat "pursuit_memo_misses");
  let entries = stat "status_memo_entries" in
  let pu', audit =
    Gtable.For_testing.audit_status_memo (fun () ->
        Gtable.pursuit tbl (Gtable.view tbl ~reserved know))
  in
  checkb "repeat pursues alike" (pu = pu');
  check Alcotest.int "the pursuit repeat is an audited hit" 1
    audit.Gtable.For_testing.pursuit_hits_checked;
  check Alcotest.int "pursuit audit is clean" 0 audit.Gtable.For_testing.pursuit_mismatches;
  check Alcotest.int "a pursuit hit probes nothing" entries
    (stat "status_memo_entries");
  check Alcotest.int "still one pursuit miss" 1 (stat "pursuit_memo_misses");
  Intern.clear_memos ();
  check Alcotest.int "clear_memos resets entries" 0 (stat "status_memo_entries");
  check Alcotest.int "clear_memos resets misses" 0 (stat "status_memo_misses");
  check Alcotest.int "clear_memos resets fallbacks" 0 (stat "status_symbolic");
  check Alcotest.int "clear_memos resets pursuit entries" 0
    (stat "pursuit_memo_entries");
  check Alcotest.int "clear_memos resets pursuit misses" 0
    (stat "pursuit_memo_misses");
  (* Tables off: the same queries stay symbolic and create no entry. *)
  Gtable.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Gtable.set_enabled true)
    (fun () ->
      checkb "no table while off" (Gtable.lookup g = None);
      ignore (Gtable.view_status tbl (Gtable.view tbl ~reserved know));
      check Alcotest.int "no entry while off" 0 (stat "status_memo_entries");
      check Alcotest.int "counted as symbolic" 1 (stat "status_symbolic");
      ignore (Gtable.pursuit tbl (Gtable.view tbl ~reserved know));
      check Alcotest.int "no pursuit entry while off" 0
        (stat "pursuit_memo_entries");
      check Alcotest.int "no pursuit miss while off" 0
        (stat "pursuit_memo_misses"))

(* --- Model-checker invariance -------------------------------------------- *)

(* Tables only short-circuit guard evaluations; they never change the
   answers, so wfmc must explore the identical state space with tables
   on and off.  Pinned against the counts test_check pins. *)
let test_mc_invariance () =
  let states name =
    (Mc.check ~spec_name:name (load name)).Mc.r_states
  in
  let with_tables b f =
    Gtable.set_enabled b;
    Fun.protect ~finally:(fun () -> Gtable.set_enabled true) f
  in
  List.iter
    (fun (name, pinned) ->
      check Alcotest.int (name ^ " states, tables on") pinned
        (with_tables true (fun () -> states name));
      check Alcotest.int (name ^ " states, tables off") pinned
        (with_tables false (fun () -> states name)))
    [ ("mc_pair.wf", 91); ("mc_trigger.wf", 242) ]

(* --- Stepped views --------------------------------------------------------- *)

(* Inputs to a knowledge and reservation set over the pool: occurrences
   with seqnos drawn at random (so they arrive out of seqno order and
   may tie), promises, reservations and releases. *)
let gen_view_case =
  QCheck2.Gen.(
    pair gen_expr
      (list_size (int_bound 12)
         (triple (int_bound 3) gen_literal (int_bound 16))))

(* Apply one input the way the actor does, returning the new knowledge
   and reservations and the view input, or [None] where the actor
   changes nothing (a contradicting occurrence, a reservation already
   held, a release of one not held). *)
let apply_input (k, reserved) (kind, (l : Literal.t), seqno) =
  let sym = Literal.symbol l in
  match kind with
  | 0 -> (
      match Knowledge.occurred l ~seqno k with
      | k' -> Some ((k', reserved), Gtable.Occurred (l, seqno))
      | exception Invalid_argument _ -> None)
  | 1 -> Some ((Knowledge.promised l k, reserved), Gtable.Promised l)
  | 2 ->
      if Symbol.Set.mem sym reserved then None
      else Some ((k, Symbol.Set.add sym reserved), Gtable.Reserved sym)
  | _ ->
      if not (Symbol.Set.mem sym reserved) then None
      else Some ((k, Symbol.Set.remove sym reserved), Gtable.Released sym)

(* After every input the stepped view equals a fresh view of the same
   knowledge and reservations, and the audit, which compares every
   view it stepped with a fresh one, agrees. *)
let stepped_view_matches_fresh =
  qprop ~count:300 "stepped view = fresh view (random inputs)" gen_view_case
    (fun (d, inputs) ->
      let ok, audit =
        Gtable.For_testing.audit_status_memo @@ fun () ->
        Literal.Set.for_all
          (fun l ->
            match Gtable.lookup (Synth.guard d l) with
            | None -> true
            | Some tbl ->
                let state = (Knowledge.empty, Symbol.Set.empty) in
                let v = Gtable.view tbl ~reserved:Symbol.Set.empty Knowledge.empty in
                let rec go state v = function
                  | [] -> true
                  | input :: rest -> (
                      match apply_input state input with
                      | None -> go state v rest
                      | Some (((k, reserved) as state), step) ->
                          let v = Gtable.step_view tbl v ~reserved k step in
                          Gtable.For_testing.view_equal v (Gtable.view tbl ~reserved k)
                          && go state v rest)
                in
                go state v inputs)
          (Expr.literals d)
      in
      ok && audit.Gtable.For_testing.view_mismatches = 0)

(* Table states replay occurrences in seqno order, so an announcement
   stamped below one the view holds must rebuild: under e·f·g, g's
   guard holds once e then f occurred; f announced first (seqno 2) and
   e late (seqno 1) is that order, while stepping e after f would read
   f before e and violate it. *)
let test_late_announcement_rebuilds () =
  let tbl = compile_exn (chain_guard ()) in
  let reserved = Symbol.Set.empty in
  let k1 = Knowledge.occurred (lit "f") ~seqno:2 Knowledge.empty in
  let k2 = Knowledge.occurred (lit "e") ~seqno:1 k1 in
  let (), audit =
    Gtable.For_testing.audit_status_memo (fun () ->
        let v = Gtable.view tbl ~reserved Knowledge.empty in
        let v = Gtable.step_view tbl v ~reserved k1 (Gtable.Occurred (lit "f", 2)) in
        let v = Gtable.step_view tbl v ~reserved k2 (Gtable.Occurred (lit "e", 1)) in
        checkb "the late announcement's view equals a fresh one"
          (Gtable.For_testing.view_equal v (Gtable.view tbl ~reserved k2));
        checkb "e then f enables g"
          (Gtable.view_status tbl v = Knowledge.True))
  in
  check Alcotest.int "only the in-order step was stepped" 1
    audit.Gtable.For_testing.views_checked;
  check Alcotest.int "and it matched" 0 audit.Gtable.For_testing.view_mismatches

let suite =
  [
    Alcotest.test_case "chain guard walks to its verdicts" `Quick
      test_chain_walk;
    Alcotest.test_case "foreign symbols are no-ops" `Quick test_foreign_noop;
    Alcotest.test_case "global switch and per-guard memo" `Quick
      test_switch_and_memo;
    Alcotest.test_case "compile respects bounds; stats exposed" `Quick
      test_compile_bounds;
    Alcotest.test_case "fingerprint is reproducible" `Quick
      test_fingerprint_stable;
    differential;
    memo_matches_symbolic;
    pursuit_matches_symbolic;
    pursuit_exhaustive;
    Alcotest.test_case "pursuit memo tells occurrence orders apart" `Quick
      test_pursuit_order;
    Alcotest.test_case "status memo counters and the symbol bound" `Quick
      test_memo_counters;
    Alcotest.test_case "wfmc explores the same states with tables off" `Quick
      test_mc_invariance;
    stepped_view_matches_fresh;
    Alcotest.test_case "a late lower-seqno announcement rebuilds the view"
      `Quick test_late_announcement_rebuilds;
  ]
