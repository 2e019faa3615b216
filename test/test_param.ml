(* Parametrized dependencies (Section 5): templates, unification, and
   the parametrized scheduling engine on Examples 13 and 14. *)

open Wf_core
open Wf_scheduler
open Helpers

let test_template_vars () =
  let t = Ptemplate.mutual_exclusion_template ~t1:"t1" ~t2:"t2" in
  check Alcotest.(list string) "vars in order" [ "y"; "x" ] (Ptemplate.vars t);
  check Alcotest.int "five distinct atoms" 5 (List.length (Ptemplate.atoms t))

let test_instantiate () =
  let t =
    Ptemplate.choice_all
      [
        Ptemplate.atom ~pol:Literal.Neg "f" [ Ptemplate.Var "y" ];
        Ptemplate.atom "g" [ Ptemplate.Var "y" ];
      ]
  in
  let ground = Ptemplate.instantiate [ ("y", "3") ] t in
  check Alcotest.string "instantiated" "~f(3) + g(3)" (Expr.to_string ground);
  checkb "unbound raises"
    (try
       ignore (Ptemplate.instantiate [] t);
       false
     with Invalid_argument _ -> true)

let test_skeleton_roundtrip () =
  let t = Ptemplate.atom "f" [ Ptemplate.Var "x"; Ptemplate.Const "9" ] in
  match Ptemplate.skeleton t with
  | Expr.Atom l ->
      check Alcotest.string "marker form" "f(?x,9)" (Symbol.name (Literal.symbol l))
  | _ -> Alcotest.fail "expected atom"

let test_match_symbol () =
  let a =
    { Ptemplate.base = "f"; pol = Literal.Pos; params = [ Ptemplate.Var "x"; Ptemplate.Const "1" ] }
  in
  check
    Alcotest.(option (list (pair string string)))
    "match binds" (Some [ ("x", "7") ])
    (Ptemplate.match_symbol a (Symbol.parametrized "f" [ "7"; "1" ]));
  checkb "constant mismatch"
    (Ptemplate.match_symbol a (Symbol.parametrized "f" [ "7"; "2" ]) = None);
  checkb "arity mismatch"
    (Ptemplate.match_symbol a (Symbol.parametrized "f" [ "7" ]) = None);
  checkb "base mismatch"
    (Ptemplate.match_symbol a (Symbol.parametrized "g" [ "7"; "1" ]) = None);
  (* Repeated variables must agree. *)
  let rep =
    { Ptemplate.base = "h"; pol = Literal.Pos; params = [ Ptemplate.Var "x"; Ptemplate.Var "x" ] }
  in
  checkb "repeated var agreement"
    (Ptemplate.match_symbol rep (Symbol.parametrized "h" [ "1"; "1" ]) <> None);
  checkb "repeated var disagreement"
    (Ptemplate.match_symbol rep (Symbol.parametrized "h" [ "1"; "2" ]) = None)

let test_of_expr_lifts () =
  let t = Ptemplate.For_testing.of_expr Catalog.d_lt in
  check Alcotest.(list string) "ground template has no vars" [] (Ptemplate.vars t);
  checkb "instantiates back"
    (Equiv.equal (Ptemplate.instantiate [] t) Catalog.d_lt)

(* --- the engine on Example 13 --------------------------------------------- *)

let mutex_engine () =
  Param_sched.create
    [
      Ptemplate.mutual_exclusion_template ~t1:"t1" ~t2:"t2";
      Ptemplate.mutual_exclusion_template ~t1:"t2" ~t2:"t1";
    ]

let b task k = Symbol.parametrized ("b_" ^ task) [ string_of_int k ]
let e_ task k = Symbol.parametrized ("e_" ^ task) [ string_of_int k ]

let test_mutex_blocking () =
  let eng = mutex_engine () in
  checkb "t1 enters" (Param_sched.attempt eng (b "t1" 1) = Param_sched.Accepted);
  checkb "t2 blocked" (Param_sched.attempt eng (b "t2" 1) = Param_sched.Parked);
  checkb "t1 exits" (Param_sched.attempt eng (e_ "t1" 1) = Param_sched.Accepted);
  (* The parked token was admitted by the retry. *)
  checkb "t2 admitted" (Param_sched.parked eng = []);
  checkb "t2's token went through"
    (Trace.mem (Literal.pos (b "t2" 1)) (Param_sched.trace eng))

let test_mutex_safety_random () =
  (* Random interleavings, many rounds: never both inside. *)
  List.iter
    (fun seed ->
      let eng = mutex_engine () in
      let rng = Wf_sim.Rng.create (Int64.of_int seed) in
      let state = [| (0, false); (0, false) |] in
      let names = [| "t1"; "t2" |] in
      let rounds = 5 in
      let steps = ref 0 in
      while
        (fst state.(0) < rounds || fst state.(1) < rounds) && !steps < 5000
      do
        incr steps;
        let i = if Wf_sim.Rng.bool rng then 0 else 1 in
        let round, inside = state.(i) in
        if round < rounds then begin
          let sym =
            if inside then e_ names.(i) (round + 1) else b names.(i) (round + 1)
          in
          match Param_sched.attempt eng sym with
          | Param_sched.Accepted | Param_sched.Already ->
              state.(i) <- (if inside then (round + 1, false) else (round, true))
          | Param_sched.Parked -> ()
          | Param_sched.Rejected | Param_sched.Busy _ ->
              Alcotest.fail "unexpected rejection"
        end
      done;
      let trace = Param_sched.trace eng in
      checkb
        (Printf.sprintf "all rounds finish (seed %d)" seed)
        (fst state.(0) = rounds && fst state.(1) = rounds);
      (* Safety check over the realized trace. *)
      let inside1 = ref false and inside2 = ref false and ok = ref true in
      List.iter
        (fun (l : Literal.t) ->
          if Literal.is_pos l then begin
            match Symbol.base (Literal.symbol l) with
            | "b_t1" ->
                if !inside2 then ok := false;
                inside1 := true
            | "e_t1" -> inside1 := false
            | "b_t2" ->
                if !inside1 then ok := false;
                inside2 := true
            | "e_t2" -> inside2 := false
            | _ -> ()
          end)
        trace;
      checkb (Printf.sprintf "mutual exclusion (seed %d)" seed) !ok;
      checkb
        (Printf.sprintf "well-formed trace (seed %d)" seed)
        (Trace.well_formed trace))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_example14 () =
  let template =
    Guard.sum
      (Guard.hasnt (Literal.pos (Symbol.parametrized "f" [ "?y" ])))
      (Guard.has (Literal.pos (Symbol.parametrized "g" [ "?y" ])))
  in
  let eng = Param_sched.create [] in
  let status () = Param_sched.instance_status eng template ~bound:[] in
  checkb "enabled initially" (status () = Knowledge.True);
  Param_sched.occurred eng (Literal.pos (Symbol.parametrized "f" [ "5" ]));
  checkb "must wait after f[5]" (status () = Knowledge.Unknown);
  Param_sched.occurred eng (Literal.pos (Symbol.parametrized "g" [ "5" ]));
  checkb "resurrected after g[5]" (status () = Knowledge.True);
  (* another binding *)
  Param_sched.occurred eng (Literal.pos (Symbol.parametrized "f" [ "6" ]));
  checkb "grows again" (status () = Knowledge.Unknown);
  Param_sched.occurred eng (Literal.pos (Symbol.parametrized "g" [ "6" ]));
  checkb "resurrected again" (status () = Knowledge.True)

let test_bound_variables () =
  (* Intra-workflow parameters (Example 12): binding the variable keys
     the guard to that instance only. *)
  let template =
    Guard.has (Literal.pos (Symbol.parametrized "c_book" [ "?cid" ]))
  in
  let eng = Param_sched.create [] in
  Param_sched.occurred eng (Literal.pos (Symbol.parametrized "c_book" [ "1" ]));
  checkb "bound to committed instance"
    (Param_sched.instance_status eng template ~bound:[ ("cid", "1") ]
    = Knowledge.True);
  checkb "other instance still waiting"
    (Param_sched.instance_status eng template ~bound:[ ("cid", "2") ]
    = Knowledge.Unknown)

let test_already_and_dedup () =
  let eng = mutex_engine () in
  ignore (Param_sched.attempt eng (b "t1" 1));
  checkb "re-attempt reports Already"
    (Param_sched.attempt eng (b "t1" 1) = Param_sched.Already);
  ignore (Param_sched.attempt eng (b "t2" 1));
  ignore (Param_sched.attempt eng (b "t2" 1));
  check Alcotest.int "parked deduplicated" 1
    (List.length (Param_sched.parked eng))

let test_param_driver () =
  (* The mutex workflow of Example 13, driven end to end from a
     workflow definition. *)
  let wf =
    Wf_tasks.Workflow_def.make ~name:"mutex"
      ~tasks:
        [
          Wf_tasks.Workflow_def.task ~instance:"t1"
            ~model:Wf_tasks.Task_model.loop_task
            ~script:(Wf_tasks.Agent.looping 4) ~parametrize:true ();
          Wf_tasks.Workflow_def.task ~instance:"t2"
            ~model:Wf_tasks.Task_model.loop_task
            ~script:(Wf_tasks.Agent.looping 4) ~parametrize:true ();
        ]
      ~deps:[] ()
  in
  List.iter
    (fun seed ->
      let r =
        Param_driver.run ~seed:(Int64.of_int seed)
          ~templates:
            [
              Ptemplate.mutual_exclusion_template ~t1:"t1" ~t2:"t2";
              Ptemplate.mutual_exclusion_template ~t1:"t2" ~t2:"t1";
            ]
          wf
      in
      checkb
        (Printf.sprintf "driver finishes (seed %d)" seed)
        r.Param_driver.finished;
      check Alcotest.int
        (Printf.sprintf "16 tokens realized (seed %d)" seed)
        16
        (Trace.length r.Param_driver.trace);
      checkb
        (Printf.sprintf "trace well-formed (seed %d)" seed)
        (Trace.well_formed r.Param_driver.trace))
    [ 3; 7; 11 ]


(* --- the parked instance cache ------------------------------------------- *)

let psym = Test_fleet.psym
let saga = Test_fleet.saga

let status_testable =
  Alcotest.testable
    (fun ppf (s : Knowledge.status) ->
      Format.pp_print_string ppf
        (match s with True -> "True" | False -> "False" | Unknown -> "Unknown"))
    ( = )

let combine (a : Knowledge.status) (b : Knowledge.status) : Knowledge.status =
  match (a, b) with
  | False, _ | _, False -> False
  | True, True -> True
  | _ -> Unknown

(* The uncached decision about [sym]: a fresh fold of [instance_status]
   over the matching positive guard templates. *)
let fresh_decision eng sym =
  List.fold_left
    (fun acc (_, (atom : Ptemplate.atom), template) ->
      if atom.Ptemplate.pol <> Literal.Pos then acc
      else
        match Ptemplate.match_symbol atom sym with
        | None -> acc
        | Some bound ->
            combine acc (Param_sched.instance_status eng template ~bound))
    Knowledge.True
    (Param_sched.guard_templates eng)

(* [know] with [sym]'s occurrence moved to a later seqno (the engine
   records occurrences only, never promises). *)
let reseq know sym =
  List.fold_left
    (fun k s ->
      match Knowledge.fate_of know s with
      | Some (Knowledge.Occurred (pol, n)) ->
          let seqno = if Symbol.equal s sym then n + 100 else n in
          Knowledge.occurred { Literal.sym = s; pol } ~seqno k
      | _ -> k)
    Knowledge.empty (Knowledge.symbols know)

(* Saga: c(j)'s closed instance reads only p(j) and c(j).  Re-decides
   whose fates did not move are counted as work but evaluate nothing; a
   moved fate re-keys the cache, seqno included; a restored engine
   starts with an empty cache and decides the same. *)
let test_instance_cache () =
  let eng = Param_sched.create ~checkpoint_every:1 [ saga ] in
  let c j = psym "c" (string_of_int j) in
  let occur b j =
    Param_sched.occurred eng (Literal.pos (psym b (string_of_int j)))
  in
  for j = 0 to 3 do
    checkb "commit before prepare parks"
      (Param_sched.attempt eng (c j) = Param_sched.Parked)
  done;
  check Alcotest.int "one evaluation per attempt" 4 (Param_sched.evaluations eng);
  occur "p" 9;
  check Alcotest.int "a fresh token re-decides every parked attempt" 8
    (Param_sched.work eng);
  check Alcotest.int "unmoved fates evaluate nothing" 4
    (Param_sched.evaluations eng);
  check
    Alcotest.(option status_testable)
    "the cache holds c(2)'s decision" (Some Knowledge.Unknown)
    (Param_sched.For_testing.cached_decision eng (c 2));
  occur "p" 1;
  (* c(3), c(2), c(1), c(0) re-decide; c(1) misses and is accepted; the
     three left re-decide once more on the pass it triggered *)
  check Alcotest.int "every re-decide is work" 15 (Param_sched.work eng);
  check Alcotest.int "only c(1)'s instance evaluated" 5
    (Param_sched.evaluations eng);
  checkb "c(1) went through"
    (Trace.mem (Literal.pos (c 1)) (Param_sched.trace eng));
  Param_sched.occurred eng (Literal.neg (psym "p" "2"));
  check Alcotest.int "~p(2) re-keys c(2) only" 6 (Param_sched.evaluations eng);
  check
    Alcotest.(option status_testable)
    "c(2) is doomed and stays parked" (Some Knowledge.False)
    (Param_sched.For_testing.cached_decision eng (c 2));
  (* pending terms are order-sensitive, so the key holds seqnos *)
  check
    Alcotest.(option status_testable)
    "p(2) at another seqno misses the key" None
    (Param_sched.For_testing.cached_decision
       ~know:(reseq (Param_sched.knowledge eng) (psym "p" "2"))
       eng (c 2));
  occur "p" 8;
  check Alcotest.int "the re-keyed instance hits again" 6
    (Param_sched.evaluations eng);
  let r = Param_sched.recover eng in
  checkb "recovered state equal" (Param_sched.equal_state eng r);
  checkb "restored entries hold no cached decision"
    (List.for_all
       (fun s -> Param_sched.For_testing.cached_decision r s = None)
       (Param_sched.parked r));
  let e0 = Param_sched.evaluations eng and r0 = Param_sched.evaluations r in
  let fresh_p = Literal.pos (psym "p" "7") in
  Param_sched.occurred eng fresh_p;
  Param_sched.occurred r fresh_p;
  check Alcotest.int "warm cache: hits" 0 (Param_sched.evaluations eng - e0);
  check Alcotest.int "cold cache: one evaluation per parked attempt" 3
    (Param_sched.evaluations r - r0);
  checkb "warm and cold engines agree" (Param_sched.equal_state eng r)

type spec_case = { name : string; deps : Ptemplate.t list; bases : string list }

let mutex_case () =
  let { Wf_lang.Elaborate.templates; _ } =
    Wf_lang.Elaborate.load_file (Filename.concat Test_check.spec_dir "mutex.wf")
  in
  {
    name = "mutex.wf";
    deps = List.map snd templates;
    bases = [ "b_t1"; "e_t1"; "b_t2"; "e_t2" ];
  }

let spec_cases =
  lazy
    [
      { name = "saga"; deps = [ saga ]; bases = [ "c"; "p" ] };
      {
        name = "chain-3";
        deps = [ Test_fleet.chain 3 ];
        bases = [ "x0"; "x1"; "x2" ];
      };
      mutex_case ();
    ]

(* Streams over a spec's own bases (tokens 0..3, both polarities,
   duplicates certain), with crashes anywhere. *)
let gen_cache_case =
  let open QCheck2.Gen in
  int_bound 2 >>= fun which ->
  let case = List.nth (Lazy.force spec_cases) which in
  let sym = map2 psym (oneofl case.bases) (map string_of_int (int_bound 3)) in
  let input ev = Test_fleet.In ev in
  map
    (fun steps -> (case, steps))
    (list_size (int_bound 80)
       (frequency
          [
            (5, map (fun s -> input (Test_fleet.A s)) sym);
            (3, map (fun s -> input (Test_fleet.O (Literal.pos s))) sym);
            (1, map (fun s -> input (Test_fleet.O (Literal.neg s))) sym);
            (1, return Test_fleet.Crash);
          ]))

let print_cache_case (case, steps) =
  Printf.sprintf "%s: %s" case.name
    (String.concat " "
       (List.map
          (function
            | Test_fleet.In (Test_fleet.A s) -> Symbol.name s
            | Test_fleet.In (Test_fleet.O l) -> "!" ^ Literal.to_string l
            | Test_fleet.Crash -> "CRASH")
          steps))

let lost_tail =
  { Wf_store.Media.Sim.no_faults with lost_tail = 1.0; max_faults = max_int }

(* (checkpoint cadence, store, recovery exact) *)
let cache_configs =
  [
    (7, None, true);
    (1, None, true);
    (7, Some Wf_store.Media.Sim.no_faults, true);
    (1, Some Wf_store.Media.Sim.no_faults, true);
    (7, Some lost_tail, false);
  ]

(* After every input: every fate cell equals the knowledge's fate at its
   symbol, each parked attempt's cached decision (read from the cells)
   equals a fresh fold of [instance_status], and an engine recovered at
   that point (empty cache) is state-equal.  Crash steps switch to the
   recovered engine; over lossy media it has lost a suffix and the
   stream diverges from what the crashed engine saw.  Param_sched is
   fully symbolic: a run compiles no table and leaves [Gtable.stats]
   as it found it. *)
let prop_cache_exact (case, steps) =
  List.iter
    (fun (cadence, store, exact) ->
      let tables0 = Gtable.stats () in
      let eng =
        ref (Param_sched.create ~checkpoint_every:cadence ?store case.deps)
      in
      let fail i fmt =
        Printf.ksprintf
          (fun msg ->
            Alcotest.failf "%s, cadence %d, store %b, step %d: %s" case.name
              cadence (store <> None) i msg)
          fmt
      in
      let audit i =
        let e = !eng in
        let know = Param_sched.knowledge e in
        List.iter
          (fun (sym, fate) ->
            if fate <> Knowledge.fate_of know sym then
              fail i "fate cell of %s differs from the knowledge"
                (Symbol.name sym))
          (Param_sched.For_testing.fate_cells e);
        List.iter
          (fun sym ->
            match Param_sched.For_testing.cached_decision e sym with
            | Some d when d <> fresh_decision e sym ->
                fail i "stale cached decision for %s" (Symbol.name sym)
            | _ -> ())
          (Param_sched.parked e)
      in
      List.iteri
        (fun i step ->
          match step with
          | Test_fleet.In ev ->
              (match ev with
              | Test_fleet.A sym -> ignore (Param_sched.attempt !eng sym)
              | Test_fleet.O l -> Param_sched.occurred !eng l);
              audit i;
              if store = None
                 && not (Param_sched.equal_state !eng (Param_sched.recover !eng))
              then fail i "recovered engine differs"
          | Test_fleet.Crash ->
              let r = Param_sched.recover !eng in
              if exact && not (Param_sched.equal_state !eng r) then
                fail i "recovered state differs";
              if
                cadence = 1
                && List.exists
                     (fun s -> Param_sched.For_testing.cached_decision r s <> None)
                     (Param_sched.parked r)
              then fail i "a restored entry kept a cached decision";
              eng := r;
              audit i)
        steps;
      if Gtable.stats () <> tables0 then
        fail (List.length steps) "the run changed Gtable.stats")
    cache_configs;
  true

let suite =
  [
    Alcotest.test_case "parametrized workflow driver" `Quick test_param_driver;
    Alcotest.test_case "template variables" `Quick test_template_vars;
    Alcotest.test_case "instantiation" `Quick test_instantiate;
    Alcotest.test_case "skeleton markers" `Quick test_skeleton_roundtrip;
    Alcotest.test_case "pattern matching" `Quick test_match_symbol;
    Alcotest.test_case "lifting ground expressions" `Quick test_of_expr_lifts;
    Alcotest.test_case "Example 13: blocking" `Quick test_mutex_blocking;
    Alcotest.test_case "Example 13: random interleavings" `Slow
      test_mutex_safety_random;
    Alcotest.test_case "Example 14: resurrection" `Quick test_example14;
    Alcotest.test_case "Example 12: bound parameters" `Quick test_bound_variables;
    Alcotest.test_case "Already and parking dedup" `Quick test_already_and_dedup;
    Alcotest.test_case "instance cache: hits, misses, cold restore" `Quick
      test_instance_cache;
    qprop ~count:100 ~print:print_cache_case
      "instance cache exact under crashes, stores, fate cells" gen_cache_case
      prop_cache_exact;
  ]
