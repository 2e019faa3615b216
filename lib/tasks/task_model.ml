open Wf_core
type transition = { from_state : string; event : string; to_state : string }

type t = {
  name : string;
  init : string;
  states : string list;
  transitions : transition list;
  significant : (string * string * Attribute.t) list;
  terminal : string list;
}

let validate m =
  let has_state s = List.mem s m.states in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if not (has_state m.init) then err "initial state %s unknown" m.init;
  List.iter
    (fun tr ->
      if not (has_state tr.from_state) then err "state %s unknown" tr.from_state;
      if not (has_state tr.to_state) then err "state %s unknown" tr.to_state)
    m.transitions;
  List.iter
    (fun (ev, _, _) ->
      if not (List.exists (fun tr -> tr.event = ev) m.transitions) then
        err "significant event %s labels no transition" ev)
    m.significant;
  let rec twice = function
    | [] -> None
    | x :: rest -> if List.mem x rest then Some x else twice rest
  in
  Option.iter
    (err "significant event %s listed twice")
    (twice (List.map (fun (ev, _, _) -> ev) m.significant));
  Option.iter
    (err "symbol prefix %s names two significant events")
    (twice (List.map (fun (_, prefix, _) -> prefix) m.significant));
  List.iter
    (fun s -> if not (has_state s) then err "terminal state %s unknown" s)
    m.terminal;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)

(* "buy(42,7)" -> ("buy", ["42"; "7"]) *)
let parse_instance instance =
  match String.index_opt instance '(' with
  | None -> (instance, [])
  | Some i when String.length instance > i + 1 && instance.[String.length instance - 1] = ')' ->
      let base = String.sub instance 0 i in
      let inner = String.sub instance (i + 1) (String.length instance - i - 2) in
      (base, String.split_on_char ',' inner)
  | Some _ -> (instance, [])

let prefix_of m event =
  let rec find = function
    | [] -> event
    | (ev, prefix, _) :: rest -> if ev = event then prefix else find rest
  in
  find m.significant

let symbol_of_event m ~instance event =
  let base, args = parse_instance instance in
  let name = prefix_of m event ^ "_" ^ base in
  match args with
  | [] -> Symbol.make name
  | args -> Symbol.parametrized name args

let event_of_symbol m ~instance sym =
  List.find_map
    (fun (ev, _, _) ->
      if Symbol.equal (symbol_of_event m ~instance ev) sym then Some ev else None)
    m.significant

let attribute m event =
  let rec find = function
    | [] -> Attribute.default
    | (ev, _, attr) :: rest -> if ev = event then attr else find rest
  in
  find m.significant

let next_state m state event =
  List.find_map
    (fun tr ->
      if tr.from_state = state && tr.event = event then Some tr.to_state
      else None)
    m.transitions

let reachable_states m state =
  let rec go visited frontier =
    match frontier with
    | [] -> visited
    | s :: rest ->
        if List.mem s visited then go visited rest
        else
          let succs =
            List.filter_map
              (fun tr -> if tr.from_state = s then Some tr.to_state else None)
              m.transitions
          in
          go (s :: visited) (succs @ rest)
  in
  go [] [ state ]

let reachable_events m state =
  let states = reachable_states m state in
  List.sort_uniq String.compare
    (List.filter_map
       (fun tr -> if List.mem tr.from_state states then Some tr.event else None)
       m.transitions)

let unreachable_events m state =
  let reachable = reachable_events m state in
  List.filter_map
    (fun (ev, _, _) -> if List.mem ev reachable then None else Some ev)
    m.significant

(* --- the models of Figure 1 -------------------------------------------- *)

let typical_application =
  {
    name = "application";
    init = "initial";
    states = [ "initial"; "executing"; "done" ];
    transitions =
      [
        { from_state = "initial"; event = "start"; to_state = "executing" };
        { from_state = "executing"; event = "finish"; to_state = "done" };
      ];
    significant =
      [ ("start", "s", Attribute.triggerable); ("finish", "f", Attribute.uncontrollable) ];
    terminal = [ "done" ];
  }

let transaction =
  {
    name = "transaction";
    init = "initial";
    states = [ "initial"; "active"; "committed"; "aborted" ];
    transitions =
      [
        { from_state = "initial"; event = "start"; to_state = "active" };
        { from_state = "active"; event = "commit"; to_state = "committed" };
        { from_state = "active"; event = "abort"; to_state = "aborted" };
      ];
    significant =
      [
        ("start", "s", Attribute.triggerable);
        ("commit", "c", Attribute.default);
        ("abort", "a", Attribute.uncontrollable);
      ];
    terminal = [ "committed"; "aborted" ];
  }

let rda_transaction =
  {
    name = "rda_transaction";
    init = "initial";
    states = [ "initial"; "active"; "prepared"; "committed"; "aborted" ];
    transitions =
      [
        { from_state = "initial"; event = "start"; to_state = "active" };
        { from_state = "active"; event = "precommit"; to_state = "prepared" };
        { from_state = "prepared"; event = "commit"; to_state = "committed" };
        { from_state = "active"; event = "abort"; to_state = "aborted" };
        { from_state = "prepared"; event = "abort"; to_state = "aborted" };
      ];
    significant =
      [
        ("start", "s", Attribute.triggerable);
        ("precommit", "p", Attribute.default);
        ("commit", "c", Attribute.default);
        ("abort", "a", Attribute.uncontrollable);
      ];
    terminal = [ "committed"; "aborted" ];
  }

let compensatable_transaction =
  {
    name = "compensatable_transaction";
    init = "initial";
    states = [ "initial"; "active"; "committed" ];
    transitions =
      [
        { from_state = "initial"; event = "start"; to_state = "active" };
        { from_state = "active"; event = "commit"; to_state = "committed" };
      ];
    significant =
      [ ("start", "s", Attribute.triggerable); ("commit", "c", Attribute.default) ];
    terminal = [ "committed" ];
  }

let loop_task =
  {
    name = "loop_task";
    init = "idle";
    states = [ "idle"; "critical" ];
    transitions =
      [
        { from_state = "idle"; event = "enter"; to_state = "critical" };
        { from_state = "critical"; event = "exit"; to_state = "idle" };
      ];
    significant =
      [ ("enter", "b", Attribute.default); ("exit", "e", Attribute.default) ];
    terminal = [ "idle" ];
  }

module For_testing = struct
  let reachable_events = reachable_events

  let enabled m state =
    List.filter_map
      (fun tr -> if tr.from_state = state then Some tr.event else None)
      m.transitions
end
