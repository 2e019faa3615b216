open Wf_core
open Wf_tasks

type actor = {
  sym : Symbol.t;
  site : int;
  attr : Attribute.t;
  guard_pos : Guard.t;
  guard_neg : Guard.t;
  demand_automata : Automaton.t list;
}

(* Entailed-guard memo keys: the literal lists [Agent.would_make_unreachable]
   returns. *)
module Lits_tbl = Hashtbl.Make (struct
  type t = Literal.t list

  let equal = List.equal Literal.equal

  let hash lits =
    List.fold_left (fun h l -> ((h * 31) + Literal.hash l) land max_int) 0 lits
end)

type t = {
  compiled : Compile.t;
  symbols : Symbol.t list;
  actors : actor Symbol.Map.t;
  owners : string Symbol.Map.t;
  subscriptions : Symbol.Set.t Symbol.Map.t;
  agents : Agent.spec list;
  entailed : Guard.t Lits_tbl.t;
}

let compiled t = t.compiled
let symbols t = t.symbols
let agents t = t.agents

let actor t sym =
  match Symbol.Map.find_opt sym t.actors with
  | Some a -> a
  | None -> Fmt.invalid_arg "Run_plan: no actor for %a" Symbol.pp sym

let owner t sym = Symbol.Map.find_opt sym t.owners

let subscribers t sym =
  Option.value (Symbol.Map.find_opt sym t.subscriptions) ~default:Symbol.Set.empty

let guard t lit = (Compile.plan t.compiled lit).Compile.guard

let entailed_guard t lits =
  match Lits_tbl.find_opt t.entailed lits with
  | Some g -> g
  | None ->
      let g = Guard.conj_all (List.map (guard t) lits) in
      Lits_tbl.add t.entailed lits g;
      g

(* The guards of complements the owning task's transitions on [sym] may
   entail: an attempt vets them, so the actor must hear about the
   symbols they mention. *)
let entailed_watches compiled wf sym =
  match Workflow_def.owner_of wf sym with
  | None -> Symbol.Set.empty
  | Some task -> (
      let model = task.Workflow_def.model in
      let instance = task.Workflow_def.instance in
      match
        Task_model.event_of_symbol model ~instance (Symbol.make (Symbol.base sym))
      with
      | None -> Symbol.Set.empty
      | Some ev ->
          List.fold_left
            (fun acc (tr : Task_model.transition) ->
              if tr.event <> ev then acc
              else
                let before = Task_model.unreachable_events model tr.from_state in
                List.fold_left
                  (fun acc gone ->
                    if List.mem gone before then acc
                    else
                      let gone_sym =
                        Task_model.symbol_of_event model ~instance gone
                      in
                      Symbol.Set.union acc
                        (Compile.plan compiled (Literal.neg gone_sym))
                          .Compile.watched)
                  acc
                  (Task_model.unreachable_events model tr.to_state))
            Symbol.Set.empty model.transitions)

let build (wf : Workflow_def.t) =
  let deps = Workflow_def.dependencies wf in
  let compiled = Compile.compile deps in
  let owners =
    List.fold_left
      (fun acc (task : Workflow_def.task) ->
        List.fold_left
          (fun acc (ev, _, _) ->
            Symbol.Map.add
              (Task_model.symbol_of_event task.model ~instance:task.instance ev)
              task.instance acc)
          acc task.model.Task_model.significant)
      Symbol.Map.empty wf.tasks
  in
  let symbol_set =
    Symbol.Map.fold
      (fun sym _ acc -> Symbol.Set.add sym acc)
      owners (Compile.alphabet compiled)
  in
  let automata = List.map (fun d -> (d, Automaton.build d)) deps in
  let actor_of sym =
    let attr = Workflow_def.attribute_of wf sym in
    let demand_automata =
      if attr.Attribute.triggerable then
        List.filter_map
          (fun (d, aut) ->
            if Literal.Set.mem (Literal.pos sym) (Expr.literals d) then Some aut
            else None)
          automata
      else []
    in
    {
      sym;
      site = Workflow_def.site_of wf sym;
      attr;
      guard_pos = (Compile.plan compiled (Literal.pos sym)).Compile.guard;
      guard_neg = (Compile.plan compiled (Literal.neg sym)).Compile.guard;
      demand_automata;
    }
  in
  let actors =
    Symbol.Set.fold
      (fun sym acc -> Symbol.Map.add sym (actor_of sym) acc)
      symbol_set Symbol.Map.empty
  in
  (* Subscriptions: guard symbols of both polarities, the full alphabet
     of the demand automata, and the entailed complements' guards. *)
  let subscriptions =
    Symbol.Map.fold
      (fun sym a subs ->
        let watch =
          Symbol.Set.union
            (Compile.plan compiled (Literal.pos sym)).Compile.watched
            (Compile.plan compiled (Literal.neg sym)).Compile.watched
          |> Symbol.Set.union (entailed_watches compiled wf sym)
        in
        let watch =
          List.fold_left
            (fun acc aut ->
              List.fold_left
                (fun acc l -> Symbol.Set.add (Literal.symbol l) acc)
                acc (Automaton.alphabet aut))
            watch a.demand_automata
        in
        Symbol.Set.fold
          (fun watched subs ->
            if Symbol.equal watched sym then subs
            else
              Symbol.Map.update watched
                (fun cur ->
                  let cur = Option.value cur ~default:Symbol.Set.empty in
                  Some (Symbol.Set.add sym cur))
                subs)
          watch subs)
      actors Symbol.Map.empty
  in
  let agents =
    List.map
      (fun (task : Workflow_def.task) ->
        Agent.spec ~instance:task.instance ~model:task.model
          ~parametrize:task.parametrize ())
      wf.tasks
  in
  {
    compiled;
    symbols = Symbol.Set.elements symbol_set;
    actors;
    owners;
    subscriptions;
    agents;
    entailed = Lits_tbl.create 16;
  }

(* The memo key is the spec's data, compared structurally: dependencies,
   tasks (instance, model, site, parametrize) and overrides.  Scripts are
   per-run behaviour and the name is a label, so neither is part of it. *)
module Key_tbl = Hashtbl.Make (struct
  type t =
    Expr.t list
    * (string * Task_model.t * int * bool) list
    * (Symbol.t * Attribute.t) list

  let equal a b = compare a b = 0

  let hash (deps, tasks, _) =
    List.fold_left
      (fun h d -> ((h * 31) + Expr.hash d) land max_int)
      (Hashtbl.hash (List.map (fun (i, _, s, _) -> (i, s)) tasks))
      deps
end)

let memo : t Key_tbl.t = Key_tbl.create 16
let () = Intern.register_clearer (fun () -> Key_tbl.reset memo)

let of_workflow (wf : Workflow_def.t) =
  let fresh () = Result.map (fun () -> build wf) (Workflow_def.validate wf) in
  if not (Intern.enabled ()) then fresh ()
  else
    let key =
      ( Workflow_def.dependencies wf,
        List.map
          (fun (t : Workflow_def.task) ->
            (t.instance, t.model, t.site, t.parametrize))
          wf.tasks,
        wf.overrides )
    in
    match Key_tbl.find_opt memo key with
    | Some t -> Ok t
    | None ->
        let r = fresh () in
        Result.iter (Key_tbl.add memo key) r;
        r
