(* Task models (Figure 1), agents, and workflow definitions. *)

open Wf_core
open Wf_tasks
open Helpers

let test_models_validate () =
  List.iter
    (fun m ->
      match Task_model.validate m with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (m.Task_model.name ^ ": " ^ msg))
    [
      Task_model.typical_application;
      Task_model.transaction;
      Task_model.rda_transaction;
      Task_model.compensatable_transaction;
      Task_model.loop_task;
    ]

let test_validate_catches_errors () =
  let bad =
    {
      Task_model.transaction with
      Task_model.init = "nowhere";
      significant = [ ("phantom", "p", Attribute.default) ];
    }
  in
  checkb "bad model rejected" (Result.is_error (Task_model.validate bad));
  let t = Task_model.transaction in
  checkb "significant event listed twice rejected"
    (Result.is_error
       (Task_model.validate
          { t with significant = t.significant @ [ ("commit", "k", Attribute.default) ] }));
  checkb "two events sharing a symbol prefix rejected"
    (Result.is_error
       (Task_model.validate
          {
            t with
            significant =
              List.map
                (fun (ev, prefix, attr) ->
                  (ev, (if ev = "abort" then "c" else prefix), attr))
                t.significant;
          }))

let test_symbols () =
  let m = Task_model.transaction in
  check Alcotest.string "commit symbol" "c_buy"
    (Symbol.name (Task_model.symbol_of_event m ~instance:"buy" "commit"));
  check Alcotest.string "parametrized instance" "s_buy(42)"
    (Symbol.name (Task_model.symbol_of_event m ~instance:"buy(42)" "start"));
  check
    Alcotest.(option string)
    "event back from symbol" (Some "commit")
    (Task_model.event_of_symbol m ~instance:"buy" (Symbol.make "c_buy"))

let test_reachability () =
  let m = Task_model.transaction in
  check
    Alcotest.(list string)
    "enabled initially" [ "start" ]
    (Task_model.For_testing.enabled m "initial");
  checkb "abort unreachable after commit"
    (List.mem "abort" (Task_model.unreachable_events m "committed"));
  checkb "commit reachable from active"
    (List.mem "commit" (Task_model.For_testing.reachable_events m "active"));
  (* loops never exhaust events *)
  check
    Alcotest.(list string)
    "loop task never loses events" []
    (Task_model.unreachable_events Task_model.loop_task "critical")

let test_agent_happy_path () =
  let a =
    Agent.create ~instance:"t" ~model:Task_model.transaction
      ~script:(Agent.transactional ()) ()
  in
  (match Agent.want a with
  | Some (sym, attr) ->
      check Alcotest.string "wants start" "s_t" (Symbol.name sym);
      checkb "start triggerable" attr.Attribute.triggerable
  | None -> Alcotest.fail "expected start");
  let complements = Agent.on_accepted a (Symbol.make "s_t") in
  check Alcotest.(list string) "no complements after start" []
    (List.map Literal.to_string complements);
  (match Agent.want a with
  | Some (sym, _) -> check Alcotest.string "wants commit" "c_t" (Symbol.name sym)
  | None -> Alcotest.fail "expected commit");
  let complements = Agent.on_accepted a (Symbol.make "c_t") in
  check
    Alcotest.(list string)
    "commit precludes abort" [ "~a_t" ]
    (List.map Literal.to_string complements);
  checkb "finished" (Agent.finished a)

let test_agent_fallback () =
  let a =
    Agent.create ~instance:"t" ~model:Task_model.transaction
      ~script:(Agent.transactional ()) ()
  in
  ignore (Agent.on_accepted a (Symbol.make "s_t"));
  Agent.on_rejected a (Symbol.make "c_t");
  (match Agent.want a with
  | Some (sym, attr) ->
      check Alcotest.string "falls back to abort" "a_t" (Symbol.name sym);
      checkb "abort uncontrollable" (not attr.Attribute.controllable)
  | None -> Alcotest.fail "expected abort fallback");
  let complements = Agent.on_accepted a (Symbol.make "a_t") in
  check
    Alcotest.(list string)
    "abort precludes commit" [ "~c_t" ]
    (List.map Literal.to_string complements)

let test_agent_give_up () =
  let a =
    Agent.create ~instance:"t" ~model:Task_model.transaction
      ~script:(Agent.straight_line [ "start"; "commit" ]) ()
  in
  ignore (Agent.on_accepted a (Symbol.make "s_t"));
  Agent.on_rejected a (Symbol.make "c_t");
  checkb "no fallback: gives up" (Agent.want a = None);
  checkb "finished after giving up" (Agent.finished a)

let test_agent_trigger () =
  let a =
    Agent.create ~instance:"cancel" ~model:Task_model.compensatable_transaction
      ~script:(Agent.straight_line [ "commit" ]) ()
  in
  checkb "cannot start by script" (Agent.want a = None);
  (match Agent.trigger a (Symbol.make "s_cancel") with
  | Some _ -> ()
  | None -> Alcotest.fail "trigger should succeed");
  (match Agent.want a with
  | Some (sym, _) -> check Alcotest.string "now wants commit" "c_cancel" (Symbol.name sym)
  | None -> Alcotest.fail "expected commit after trigger");
  checkb "illegal trigger refused" (Agent.trigger a (Symbol.make "s_cancel") = None)

let test_agent_loops_parametrize () =
  let a =
    Agent.create ~instance:"t1" ~model:Task_model.loop_task
      ~script:(Agent.looping 2) ~parametrize:true ()
  in
  (match Agent.want a with
  | Some (sym, _) -> check Alcotest.string "first token" "b_t1(1)" (Symbol.name sym)
  | None -> Alcotest.fail "expected enter");
  ignore (Agent.on_accepted a (Symbol.parametrized "b_t1" [ "1" ]));
  ignore (Agent.on_accepted a (Symbol.parametrized "e_t1" [ "1" ]));
  (match Agent.want a with
  | Some (sym, _) ->
      check Alcotest.string "second token" "b_t1(2)" (Symbol.name sym)
  | None -> Alcotest.fail "expected second round");
  checkb "parametrized agents emit no complements"
    (Agent.For_testing.undecided_complements a = [])

let test_agent_undecided_complements () =
  let a =
    Agent.create ~instance:"t" ~model:Task_model.transaction
      ~script:(Agent.straight_line [ "start" ]) ()
  in
  ignore (Agent.on_accepted a (Symbol.make "s_t"));
  let names =
    List.map Literal.to_string (Agent.For_testing.undecided_complements a)
  in
  checkb "commit undecided" (List.mem "~c_t" names);
  checkb "abort undecided" (List.mem "~a_t" names);
  checkb "start decided" (not (List.mem "~s_t" names))

let travel_def () =
  Workflow_def.make ~name:"travel"
    ~tasks:
      [
        Workflow_def.task ~instance:"buy" ~model:Task_model.transaction ~site:0 ();
        Workflow_def.task ~instance:"book"
          ~model:Task_model.compensatable_transaction ~site:1 ();
        Workflow_def.task ~instance:"cancel"
          ~model:Task_model.compensatable_transaction ~site:2 ();
      ]
    ~deps:(Catalog.travel_workflow ())
    ()

let test_workflow_def () =
  let wf = travel_def () in
  (match Workflow_def.validate wf with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check Alcotest.int "sites" 3 (Workflow_def.num_sites wf);
  check Alcotest.int "site of c_book" 1 (Workflow_def.site_of wf (Symbol.make "c_book"));
  (match Workflow_def.owner_of wf (Symbol.make "s_cancel") with
  | Some t -> check Alcotest.string "owner" "cancel" t.Workflow_def.instance
  | None -> Alcotest.fail "owner expected");
  let attr = Workflow_def.attribute_of wf (Symbol.make "s_book") in
  checkb "start triggerable from model" attr.Attribute.triggerable;
  let attr = Workflow_def.attribute_of wf (Symbol.make "a_buy") in
  checkb "abort uncontrollable" (not attr.Attribute.controllable)

let test_workflow_def_validation () =
  let wf =
    Workflow_def.make ~name:"bad"
      ~tasks:
        [ Workflow_def.task ~instance:"t" ~model:Task_model.transaction () ]
      ~deps:[ ("d", Catalog.d_arrow) ] (* mentions e, f: unowned *)
      ()
  in
  checkb "unowned symbols rejected" (Result.is_error (Workflow_def.validate wf));
  let dup =
    Workflow_def.make ~name:"dup"
      ~tasks:
        [
          Workflow_def.task ~instance:"t" ~model:Task_model.transaction ();
          Workflow_def.task ~instance:"t" ~model:Task_model.transaction ();
        ]
      ~deps:[] ()
  in
  checkb "duplicate instances rejected" (Result.is_error (Workflow_def.validate dup))


(* --- the indexed agent against the string-based reference ------------ *)

(* Every built-in model, under every script shape, parametrizing or not,
   and every order of up to four agent inputs (three for models with
   more than two significant events) — accepting, rejecting or
   triggering each significant event, or accepting what the agent
   wants —: after each input the indexed agent and
   [Reference.String_agent] must agree on everything they report. *)
let test_agent_matches_reference () =
  let module R = Reference.String_agent in
  let models =
    Task_model.
      [
        typical_application;
        transaction;
        rda_transaction;
        compensatable_transaction;
        loop_task;
      ]
  in
  let scripts (m : Task_model.t) =
    [
      Agent.transactional ();
      Agent.aborting ();
      Agent.straight_line (List.map (fun (ev, _, _) -> ev) m.significant);
      Agent.looping 2;
      Agent.straight_line [ "nope"; "start" ];
    ]
  in
  let checked = ref 0 in
  List.iter
    (fun (m : Task_model.t) ->
      List.iter
        (fun script ->
          List.iter
            (fun (parametrize, fresh) ->
              let instance = "t" in
              let symbols =
                List.map
                  (fun (ev, _, _) -> Task_model.symbol_of_event m ~instance ev)
                  m.significant
              in
              (* The agent's symbols are [symbols] themselves, so an input
                 naming one resolves by address; [fresh] inputs name an
                 equal copy and resolve by name. *)
              let canonical sym =
                Option.value ~default:sym
                  (List.find_opt (Symbol.equal sym) symbols)
              in
              let spec =
                Agent.spec ~instance ~model:m ~parametrize ~canonical ()
              in
              let name sym = if fresh then Symbol.make (Symbol.name sym) else sym in
              let ops =
                `Wanted
                :: List.concat_map
                     (fun sym -> [ `Accept sym; `Reject sym; `Trigger sym ])
                     symbols
              in
              let same_lits = List.equal Literal.equal in
              let fail path what =
                Alcotest.failf "%s/%s%s after %d inputs: %s differs" m.name
                  (if parametrize then "param" else "ground")
                  (if fresh then "/by-name" else "")
                  (List.length path) what
              in
              let agree path a r =
                incr checked;
                (match (Agent.want a, R.want r) with
                | None, None -> ()
                | Some (s, at), Some (s', at')
                  when Symbol.equal s s' && at = at' -> ()
                | _ -> fail path "want");
                if Agent.finished a <> R.finished r then fail path "finished";
                if
                  not
                    (same_lits (Agent.For_testing.undecided_complements a)
                       (R.undecided_complements r))
                then fail path "undecided_complements";
                if Agent.fingerprint a <> R.fingerprint r then
                  fail path "fingerprint";
                List.iter
                  (fun sym ->
                    if
                      not
                        (same_lits
                           (Agent.would_make_unreachable a (name sym))
                           (R.would_make_unreachable r sym))
                    then fail path "would_make_unreachable";
                    let mask = Agent.unreachable_mask a (name sym) in
                    if
                      not
                        (same_lits
                           (List.filteri
                              (fun i _ -> mask land (1 lsl i) <> 0)
                              (Array.to_list (Agent.complements spec)))
                           (R.would_make_unreachable r sym))
                    then fail path "unreachable_mask")
                  symbols
              in
              let apply path a r = function
                | `Wanted -> (
                    match Agent.want a with
                    | None -> ()
                    | Some (sym, _) ->
                        Agent.begin_attempt a sym;
                        R.begin_attempt r sym;
                        if
                          not
                            (same_lits (Agent.on_accepted a sym)
                               (R.on_accepted r sym))
                        then fail path "on_accepted")
                | `Accept sym ->
                    if
                      not
                        (same_lits (Agent.on_accepted a (name sym))
                           (R.on_accepted r sym))
                    then fail path "on_accepted"
                | `Reject sym ->
                    R.on_rejected r sym;
                    Agent.on_rejected a (name sym)
                | `Trigger sym ->
                    if
                      not
                        (Option.equal same_lits (Agent.trigger a (name sym))
                           (R.trigger r sym))
                    then fail path "trigger"
              in
              let rec explore path k =
                let a = Agent.instantiate spec ~script in
                let r = R.create ~instance ~model:m ~script ~parametrize () in
                List.iter (apply path a r) (List.rev path);
                agree path a r;
                if k > 0 then List.iter (fun op -> explore (op :: path) (k - 1)) ops
              in
              explore [] (if List.length symbols <= 2 then 4 else 3))
            [ (false, false); (false, true); (true, false) ])
        (scripts m))
    models;
  checkb "explored" (!checked > 10_000)

let test_agent_mask_overflow () =
  let many n =
    let events = List.init n (fun i -> Printf.sprintf "e%d" i) in
    {
      Task_model.name = "wide";
      init = "s";
      states = [ "s" ];
      transitions =
        List.map
          (fun ev -> { Task_model.from_state = "s"; event = ev; to_state = "s" })
          events;
      significant =
        List.mapi (fun i ev -> (ev, Printf.sprintf "p%d" i, Attribute.default)) events;
      terminal = [ "s" ];
    }
  in
  ignore (Agent.spec ~instance:"w" ~model:(many Sys.int_size) ());
  match Agent.spec ~instance:"w" ~model:(many (Sys.int_size + 1)) () with
  | _ -> Alcotest.fail "a model wider than the mask was accepted"
  | exception Invalid_argument _ -> ()

let test_attributes () =
  checkb "default controllable" Attribute.default.Attribute.controllable;
  checkb "uncontrollable not rejectable"
    (not Attribute.uncontrollable.Attribute.rejectable);
  checkb "triggerable is controllable" Attribute.triggerable.Attribute.controllable

let suite =
  [
    Alcotest.test_case "models validate" `Quick test_models_validate;
    Alcotest.test_case "validation catches errors" `Quick test_validate_catches_errors;
    Alcotest.test_case "symbol naming" `Quick test_symbols;
    Alcotest.test_case "reachability" `Quick test_reachability;
    Alcotest.test_case "agent happy path" `Quick test_agent_happy_path;
    Alcotest.test_case "agent rejection fallback" `Quick test_agent_fallback;
    Alcotest.test_case "agent gives up" `Quick test_agent_give_up;
    Alcotest.test_case "agent triggering" `Quick test_agent_trigger;
    Alcotest.test_case "looping agents parametrize tokens" `Quick
      test_agent_loops_parametrize;
    Alcotest.test_case "undecided complements" `Quick test_agent_undecided_complements;
    Alcotest.test_case "workflow definitions" `Quick test_workflow_def;
    Alcotest.test_case "workflow validation" `Quick test_workflow_def_validation;
    Alcotest.test_case "attributes" `Quick test_attributes;
    Alcotest.test_case "indexed agent = string-based reference" `Quick
      test_agent_matches_reference;
    Alcotest.test_case "agent rejects a model wider than its mask" `Quick
      test_agent_mask_overflow;
  ]
