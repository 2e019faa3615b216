open Wf_core
type script = {
  steps : string list;
  on_reject : string -> string option;
  repeat : int;
}

let straight_line steps = { steps; on_reject = (fun _ -> None); repeat = 1 }

let transactional () =
  {
    steps = [ "start"; "commit" ];
    on_reject = (function "commit" -> Some "abort" | _ -> None);
    repeat = 1;
  }

let aborting () = straight_line [ "start"; "abort" ]
let looping k = { steps = [ "enter"; "exit" ]; on_reject = (fun _ -> None); repeat = k }

(* A script step, resolved against the model's event table once: [ev]
   is the event's number, or -1 for a name no transition carries. *)
type step = { name : string; ev : int }

(* The immutable part of an agent, shared by every run of a plan.  The
   model's states and events are numbered once: events [0 .. n-1] are
   the significant events in model order (validation makes them
   distinct, each with its own symbol), the other transition events
   follow.  Occurrence and unreachability are bitmasks over the
   significant events. *)
type spec = {
  instance : string;
  model : Task_model.t;
  parametrize : bool;
  states : string array;
  init : int;
  events : string array; (* by event number *)
  attrs : Attribute.t array; (* by event number ([Task_model.attribute]) *)
  next : int array array; (* state -> event -> next state, -1 if none *)
  symbols : Symbol.t array; (* significant event -> its symbol *)
  complements : Literal.t array;
      (* significant event -> [Literal.neg] of its symbol; empty when
         parametrizing *)
  plain : bool;
      (* the symbols take no arguments (the instance is not of the form
         [name(args)]): only then does a symbol name an event *)
  gone_mask : int array; (* state -> its unreachable significant events *)
  gone : int list array; (* the same events, in model order *)
}

type t = {
  spec : spec;
  script : script;
  mutable state : int;
  mutable plan : step list; (* events still to attempt *)
  mutable awaiting : Symbol.t option;
  mutable occurred : string list; (* events that occurred, most recent first *)
  mutable mask : int; (* significant events that occurred *)
  counts : int array; (* occurrence counts by event number *)
  mutable given_up : bool;
}

let index_of name names =
  Option.value ~default:(-1) (Array.find_index (String.equal name) names)

let spec ~instance ~model ?(parametrize = false) ?(canonical = Fun.id) () =
  (match Task_model.validate model with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Agent.spec: invalid model: " ^ msg));
  let significant = List.map (fun (ev, _, _) -> ev) model.Task_model.significant in
  let nsig = List.length significant in
  if nsig > Sys.int_size then
    invalid_arg
      (Printf.sprintf "Agent.spec: %d significant events, at most %d" nsig
         Sys.int_size);
  let names =
    List.fold_left
      (fun acc tr ->
        let ev = tr.Task_model.event in
        if List.mem ev acc then acc else acc @ [ ev ])
      significant model.Task_model.transitions
  in
  let events = Array.of_list names in
  let states = Array.of_list model.Task_model.states in
  let state_index st = index_of st states in
  let symbols =
    Array.of_list
      (List.map
         (fun ev -> canonical (Task_model.symbol_of_event model ~instance ev))
         significant)
  in
  let gone_of st =
    let unreachable = Task_model.unreachable_events model st in
    List.filter (fun e -> List.mem events.(e) unreachable) (List.init nsig Fun.id)
  in
  let gone = Array.map gone_of states in
  {
    instance;
    model;
    parametrize;
    states;
    init = state_index model.Task_model.init;
    events;
    attrs = Array.map (Task_model.attribute model) events;
    next =
      Array.map
        (fun st ->
          Array.map
            (fun ev ->
              match Task_model.next_state model st ev with
              | Some st' -> state_index st'
              | None -> -1)
            events)
        states;
    symbols;
    complements =
      (if parametrize then [||] else Array.map Literal.neg symbols);
    plain = Array.for_all (fun sym -> Symbol.args sym = []) symbols;
    gone_mask =
      Array.map (List.fold_left (fun m e -> m lor (1 lsl e)) 0) gone;
    gone;
  }

let step_of spec name = { name; ev = index_of name spec.events }

let expand_script spec script =
  List.concat (List.init (max 1 script.repeat) (fun _ -> script.steps))
  |> List.map (step_of spec)

let instantiate spec ~script =
  {
    spec;
    script;
    state = spec.init;
    plan = expand_script spec script;
    awaiting = None;
    occurred = [];
    mask = 0;
    counts = Array.make (Array.length spec.events) 0;
    given_up = false;
  }

let create ~instance ~model ~script ?parametrize () =
  instantiate (spec ~instance ~model ?parametrize ()) ~script

let instance t = t.spec.instance
let awaiting t = t.awaiting
let complements spec = spec.complements
let occurred_mask t = t.mask

(* The symbol of an attempt of event [ev]; a step outside the
   significant events is named the way the model names it. *)
let symbol_of t ev =
  let base =
    if ev < Array.length t.spec.symbols then t.spec.symbols.(ev)
    else
      Task_model.symbol_of_event t.spec.model ~instance:t.spec.instance
        t.spec.events.(ev)
  in
  if t.spec.parametrize then
    Symbol.parametrized (Symbol.name base) [ string_of_int (t.counts.(ev) + 1) ]
  else base

(* The significant event a symbol names, -1 if none: by address for the
   symbols the agent hands out, else by base (any occurrence parameter
   is stripped). *)
let event_of_symbol t sym =
  let symbols = t.spec.symbols in
  let n = Array.length symbols in
  let rec by_address e =
    if e = n then by_base 0 else if symbols.(e) == sym then e else by_address (e + 1)
  and by_base e =
    if e = n then -1
    else if String.equal (Symbol.base symbols.(e)) (Symbol.base sym) then e
    else by_base (e + 1)
  in
  if t.spec.plain then by_address 0 else -1

let next_of t ev = if ev < 0 then -1 else t.spec.next.(t.state).(ev)

let want t =
  if t.given_up || Option.is_some t.awaiting then None
  else
    match t.plan with
    | [] -> None
    | step :: _ ->
        if next_of t step.ev < 0 then None
        else Some (symbol_of t step.ev, t.spec.attrs.(step.ev))

let begin_attempt t sym = t.awaiting <- Some sym

(* The significant events the transition [before -> after] makes
   unreachable, other than [event] and those that occurred, as a mask. *)
let fresh_unreachable t ~before ~after event =
  if t.spec.parametrize then 0
  else
    let spec = t.spec in
    spec.gone_mask.(after)
    land lnot (spec.gone_mask.(before) lor t.mask lor (1 lsl event))

(* Their complements, in model order. *)
let complements_made_unreachable t ~before ~after event =
  let fresh = fresh_unreachable t ~before ~after event in
  if fresh = 0 then []
  else
    List.filter_map
      (fun e ->
        if fresh land (1 lsl e) <> 0 then Some t.spec.complements.(e) else None)
      t.spec.gone.(after)

let would_make_unreachable t sym =
  match event_of_symbol t sym with
  | -1 -> []
  | event -> (
      match next_of t event with
      | -1 -> []
      | next -> complements_made_unreachable t ~before:t.state ~after:next event)

let unreachable_mask t sym =
  match event_of_symbol t sym with
  | -1 -> 0
  | event -> (
      match next_of t event with
      | -1 -> 0
      | next -> fresh_unreachable t ~before:t.state ~after:next event)

let advance t event =
  match next_of t event with
  | -1 -> None
  | next ->
      let before = t.state in
      (* The complement of an event that is about to occur must not be
         emitted, so record the occurrence first. *)
      t.occurred <- t.spec.events.(event) :: t.occurred;
      t.mask <- t.mask lor (1 lsl event);
      t.counts.(event) <- t.counts.(event) + 1;
      t.state <- next;
      Some (complements_made_unreachable t ~before ~after:next event)

(* Drop the plan's head if it is [event]. *)
let satisfy_step t event =
  match t.plan with
  | step :: rest when step.ev = event -> t.plan <- rest
  | _ -> ()

let on_accepted t sym =
  (match t.awaiting with
  | Some s when Symbol.equal s sym -> t.awaiting <- None
  | _ -> ());
  match event_of_symbol t sym with
  | -1 -> []
  | event -> (
      satisfy_step t event;
      match advance t event with None -> [] | Some complements -> complements)

let on_rejected t sym =
  (match t.awaiting with
  | Some s when Symbol.equal s sym -> t.awaiting <- None
  | _ -> ());
  match event_of_symbol t sym with
  | -1 -> ()
  | event -> (
      match t.script.on_reject t.spec.events.(event) with
      | Some fallback -> (
          let step = step_of t.spec fallback in
          match t.plan with
          | _ :: rest -> t.plan <- step :: rest
          | [] -> t.plan <- [ step ])
      | None -> t.given_up <- true)

let trigger t sym =
  match event_of_symbol t sym with
  | -1 -> None
  | event -> (
      match advance t event with
      | None -> None
      | Some complements ->
          (* A trigger satisfies a matching plan step. *)
          satisfy_step t event;
          Some complements)

let finished t =
  t.awaiting = None
  && (t.given_up
     || match t.plan with [] -> true | step :: _ -> next_of t step.ev < 0)

(* The model checker's visited-state key: the mutable progress
   fields; the script (which contains closures) and the model are
   immutable configuration. *)
let fingerprint t =
  let open Fingerprint in
  let h = string init t.spec.states.(t.state) in
  let h = list (fun h step -> string h step.name) h t.plan in
  let h = option (fun h s -> string h (Symbol.name s)) h t.awaiting in
  let h = list string h t.occurred in
  (* Counts hash by event name, sorted, so the key does not depend on
     how the spec numbers events. *)
  let counts =
    List.filter_map
      (fun ev ->
        if t.counts.(ev) > 0 then Some (t.spec.events.(ev), t.counts.(ev))
        else None)
      (List.init (Array.length t.counts) Fun.id)
  in
  let h =
    list (fun h (ev, n) -> int (string h ev) n) h (List.sort compare counts)
  in
  bool h t.given_up

module For_testing = struct
  let undecided_complements t =
    let complements = t.spec.complements in
    let rec from e =
      if e = Array.length complements then []
      else if t.mask land (1 lsl e) <> 0 then from (e + 1)
      else complements.(e) :: from (e + 1)
    in
    from 0
end
