(* The split-enumeration definition of the trace semantics (Semantics
   1–5): [e·f] holds when some decomposition [u = v @ w] has [v ⊨ e] and
   [w ⊨ f].  The oracle for the positional evaluator in
   [Wf_core.Semantics]. *)

open Wf_core

(* All decompositions [u = v @ w], in order of increasing [|v|]. *)
let splits u =
  let rec go rev_v w acc =
    let here = (List.rev rev_v, w) in
    match w with
    | [] -> List.rev (here :: acc)
    | x :: rest -> go (x :: rev_v) rest (here :: acc)
  in
  go [] u []

let rec satisfies u (e : Expr.t) =
  match e with
  | Expr.Zero -> false
  | Expr.Top -> true
  | Expr.Atom l -> Trace.mem l u
  | Expr.Choice (a, b) -> satisfies u a || satisfies u b
  | Expr.Conj (a, b) -> satisfies u a && satisfies u b
  | Expr.Seq (a, b) ->
      List.exists (fun (v, w) -> satisfies v a && satisfies w b) (splits u)

let violations deps u = List.filter (fun d -> not (satisfies u d)) deps

(* The agent as it was written over event names: states, events and
   occurrences are strings, every step looks them up in the model's
   association lists.  The oracle [Wf_tasks.Agent]'s indexed tables are
   checked against, operation by operation. *)
module String_agent = struct
  open Wf_tasks

  (* The immutable part of an agent, shared by every run of a plan: the
     model (validated once), each significant event's symbol and the
     significant events unreachable from each state. *)
  type spec = {
    instance : string;
    model : Task_model.t;
    parametrize : bool;
    symbols : (string * Symbol.t) list;
        (* each significant event's symbol, in model order *)
    by_base : (string * string) list;
        (* symbol base -> event, for the argument-free symbols above *)
    unreachable : (string * string list) list;
        (* state -> [Task_model.unreachable_events], for every state *)
  }

  type t = {
    spec : spec;
    script : Agent.script;
    mutable state : string;
    mutable plan : string list; (* events still to attempt *)
    mutable awaiting : Symbol.t option;
    mutable occurred : string list; (* events that occurred, most recent first *)
    mutable counts : (string * int) list; (* occurrence counts per event *)
    mutable given_up : bool;
  }

  let expand_script (script : Agent.script) =
    List.concat (List.init (max 1 script.repeat) (fun _ -> script.steps))

  let spec ~instance ~model ?(parametrize = false) ?(canonical = Fun.id) () =
    (match Task_model.validate model with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Agent.spec: invalid model: " ^ msg));
    let symbols =
      List.map
        (fun (ev, _, _) ->
          (ev, canonical (Task_model.symbol_of_event model ~instance ev)))
        model.Task_model.significant
    in
    (* [Task_model.event_of_symbol] on an argument-free symbol: the first
       significant event whose symbol has no arguments and the same base. *)
    let by_base =
      List.filter_map
        (fun (ev, sym) ->
          if Symbol.args sym = [] then Some (Symbol.base sym, ev) else None)
        symbols
    in
    let unreachable =
      List.map
        (fun st -> (st, Task_model.unreachable_events model st))
        model.Task_model.states
    in
    { instance; model; parametrize; symbols; by_base; unreachable }

  let instantiate spec ~script =
    {
      spec;
      script;
      state = spec.model.Task_model.init;
      plan = expand_script script;
      awaiting = None;
      occurred = [];
      counts = [];
      given_up = false;
    }

  let create ~instance ~model ~script ?parametrize () =
    instantiate (spec ~instance ~model ?parametrize ()) ~script

  let instance t = t.spec.instance
  let awaiting t = t.awaiting

  let count_of t event =
    Option.value (List.assoc_opt event t.counts) ~default:0

  (* The tables hold a handful of entries: a linear scan on [String.equal]
     beats hashing the key. *)
  let rec find_string key = function
    | [] -> None
    | (k, v) :: rest -> if String.equal k key then Some v else find_string key rest

  let symbol_of t event =
    let base =
      match find_string event t.spec.symbols with
      | Some sym -> sym
      | None ->
          Task_model.symbol_of_event t.spec.model ~instance:t.spec.instance event
    in
    if t.spec.parametrize then
      Symbol.parametrized (Symbol.name base)
        [ string_of_int (count_of t event + 1) ]
    else base

  let event_of_symbol t sym =
    (* Match on the base: any occurrence parameter is stripped. *)
    find_string (Symbol.base sym) t.spec.by_base

  let want t =
    if t.given_up || Option.is_some t.awaiting then None
    else
      match t.plan with
      | [] -> None
      | event :: _ ->
          if Task_model.next_state t.spec.model t.state event = None then None
          else Some (symbol_of t event, Task_model.attribute t.spec.model event)

  let begin_attempt t sym = t.awaiting <- Some sym

  (* Validation puts every state a transition reaches among the model's
     states, so each has an entry. *)
  let unreachable_from spec st = List.assoc st spec.unreachable

  (* The complements of the significant events the transition [before ->
     after] makes unreachable, other than [event] and those that
     occurred. *)
  let complements_made_unreachable t ~before ~after ~event =
    if t.spec.parametrize then []
    else
      let was = unreachable_from t.spec before in
      List.filter_map
        (fun ev ->
          if
            (not (List.mem ev was))
            && (not (List.mem ev t.occurred))
            && not (String.equal ev event)
          then Some (Literal.neg (symbol_of t ev))
          else None)
        (unreachable_from t.spec after)

  let would_make_unreachable t sym =
    match event_of_symbol t sym with
    | None -> []
    | Some event -> (
        match Task_model.next_state t.spec.model t.state event with
        | None -> []
        | Some next ->
            complements_made_unreachable t ~before:t.state ~after:next ~event)

  let advance t event =
    match Task_model.next_state t.spec.model t.state event with
    | None -> None
    | Some next ->
        let before = t.state in
        (* The complement of an event that is about to occur must not be
           emitted, so record the occurrence first. *)
        t.occurred <- event :: t.occurred;
        t.counts <- (event, count_of t event + 1) :: List.remove_assoc event t.counts;
        t.state <- next;
        Some (complements_made_unreachable t ~before ~after:next ~event)

  let on_accepted t sym =
    (match t.awaiting with
    | Some s when Symbol.equal s sym -> t.awaiting <- None
    | _ -> ());
    match event_of_symbol t sym with
    | None -> []
    | Some event -> (
        (* Drop the satisfied plan step if it is the current head. *)
        (match t.plan with
        | next :: rest when next = event -> t.plan <- rest
        | _ -> ());
        match advance t event with None -> [] | Some complements -> complements)

  let on_rejected t sym =
    (match t.awaiting with
    | Some s when Symbol.equal s sym -> t.awaiting <- None
    | _ -> ());
    match event_of_symbol t sym with
    | None -> ()
    | Some event -> (
        match t.script.Agent.on_reject event with
        | Some fallback -> (
            match t.plan with
            | _ :: rest -> t.plan <- fallback :: rest
            | [] -> t.plan <- [ fallback ])
        | None -> t.given_up <- true)

  let trigger t sym =
    match event_of_symbol t sym with
    | None -> None
    | Some event -> (
        match advance t event with
        | None -> None
        | Some complements ->
            (* A trigger satisfies a matching plan step. *)
            (match t.plan with
            | next :: rest when next = event -> t.plan <- rest
            | _ -> ());
            Some complements)

  let finished t =
    t.awaiting = None
    && (t.given_up || t.plan = []
       || List.for_all
            (fun ev -> Task_model.next_state t.spec.model t.state ev = None)
            [ List.hd t.plan ])

  let undecided_complements t =
    if t.spec.parametrize then []
    else
      List.filter_map
        (fun (ev, _, _) ->
          if List.mem ev t.occurred then None
          else Some (Literal.neg (symbol_of t ev)))
        t.spec.model.Task_model.significant

  (* The model checker's visited-state key: the mutable progress
     fields; the script (which contains closures) and the model are
     immutable configuration. *)
  let fingerprint t =
    let open Fingerprint in
    let h = string init t.state in
    let h = list string h t.plan in
    let h = option (fun h s -> string h (Symbol.name s)) h t.awaiting in
    let h = list string h t.occurred in
    (* [counts] is an assoc list whose order tracks update recency, which
       is not part of the logical state: canonicalize by key. *)
    let h =
      list
        (fun h (ev, n) -> int (string h ev) n)
        h
        (List.sort compare t.counts)
    in
    bool h t.given_up
end
