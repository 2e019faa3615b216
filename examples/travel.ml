(* The travel workflow of Example 4 / Example 12, end to end: buy a
   non-refundable plane ticket and book a (cancellable) rental car for a
   customer, against two inventory counters.

   Semantics required by the paper:
     (1) initiate book if buy is started        ~s_buy + s_book
     (2) if buy commits, it commits after book  ~c_buy + c_book . c_buy
     (3) compensate book by cancel if buy
         fails to commit                        ~c_book + c_buy + s_cancel

   The example runs both the happy path and an injected failure of the
   ticket purchase, with the car-fleet inventory updated at the
   significant events; compensation restores the fleet.

   Run with:  dune exec examples/travel.exe *)

open Wf_core
open Wf_tasks
open Wf_scheduler

let spec_text =
  {|
workflow travel {
  task buy    : transaction    at 0;
  task book   : compensatable at 1 script "commit";
  task cancel : compensatable at 2 script "commit";

  dep d1: ~s_buy + s_book;
  dep d2: ~c_buy + c_book . c_buy;
  dep d3: ~c_book + c_buy + s_cancel;
  # Strengthening discussed at the end of Example 4: cancel and a
  # committed buy are mutually exclusive, so the compensation runs
  # exactly when the purchase fails.
  dep d4: ~c_buy + ~s_cancel;
}
|}

let run ~buy_fails ~cid =
  Format.printf "=== customer %s, buy %s ===@." cid
    (if buy_fails then "fails (injected abort)" else "succeeds");
  let { Wf_lang.Elaborate.def; templates = _ } =
    Wf_lang.Elaborate.load_string spec_text
  in
  (* Failure injection: replace buy's script with start-then-abort. *)
  let def =
    if not buy_fails then def
    else
      {
        def with
        Workflow_def.tasks =
          List.map
            (fun (t : Workflow_def.task) ->
              if t.Workflow_def.instance = "buy" then
                { t with Workflow_def.script = Agent.aborting () }
              else t)
            def.Workflow_def.tasks;
      }
  in
  (* Autonomous component inventories: airline seats and rental cars. *)
  let seats = ref 50 and cars = ref 30 in
  let effect (o : Event_sched.occurrence) =
    match Symbol.name (Literal.symbol o.Event_sched.lit) with
    | "c_buy" when Literal.is_pos o.Event_sched.lit ->
        decr seats;
        Format.printf "    [airline] seat sold to %s@." cid
    | "c_book" when Literal.is_pos o.Event_sched.lit ->
        decr cars;
        Format.printf "    [cars]    car reserved for %s@." cid
    | "c_cancel" when Literal.is_pos o.Event_sched.lit ->
        incr cars;
        Format.printf "    [cars]    reservation cancelled for %s@." cid
    | _ -> ()
  in
  let result =
    Event_sched.run
      ~config:
        {
          Event_sched.default_config with
          check_generates = true;
          on_event = effect;
        }
      def
  in
  Format.printf "  trace:";
  List.iter
    (fun (o : Event_sched.occurrence) ->
      Format.printf " %s" (Literal.to_string o.Event_sched.lit))
    result.Event_sched.trace;
  Format.printf "@.  dependencies satisfied: %b; generated: %s@."
    result.Event_sched.satisfied
    (match result.Event_sched.generated with
    | Some b -> string_of_bool b
    | None -> "-");
  Format.printf "  seats left: %d; cars left: %d@.@." !seats !cars;
  assert result.Event_sched.satisfied;
  (* The key business invariant of Example 4: both or neither leg takes
     effect.  Ticket sold <=> car kept. *)
  let ticket_sold = !seats = 49 in
  let car_kept = !cars = 29 in
  assert (ticket_sold = car_kept);
  assert (ticket_sold = not buy_fails)

let () =
  run ~buy_fails:false ~cid:"c42";
  run ~buy_fails:true ~cid:"c43";
  Format.printf "travel example: all invariants hold@."
