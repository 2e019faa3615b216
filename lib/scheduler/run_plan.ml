open Wf_core
open Wf_tasks

type actor = {
  sym : Symbol.t;
  pos : Literal.t;
  neg : Literal.t;
  index : int;
  site : int;
  attr : Attribute.t;
  guard_pos : Gtable.cell;
  guard_neg : Gtable.cell;
  demand_automata : Automaton.t list;
  task : int option;
  subscribers : int array;
  route : Symbol.t -> int;
}

type task = {
  agent : Agent.spec;
  closes : (Literal.t * int) array;
}

type attempt = { lit : Literal.t; entailed : Guard.t; vetted : Gtable.cell }

(* The entailed-guard memo's entry: the conjunction, and the attempts
   that have vetted it, each with the guard it vets. *)
type entailed = { e_guard : Guard.t; mutable e_attempts : attempt list }

type t = {
  compiled : Compile.t;
  symbols : Symbol.t list;
  actors : actor array; (* by slot *)
  index : int Symbol_tbl.t;
  tasks : task array; (* workflow order *)
  task_order : int array;
  entailed : entailed Int_table.t array;
      (* by task, keyed by the mask of entailed complements
         ([Agent.unreachable_mask]) *)
}

let compiled t = t.compiled
let symbols t = t.symbols
let tasks t = t.tasks
let task_order t = t.task_order
let actors t = t.actors
let index t sym = Symbol_tbl.find_opt t.index sym

let guard t lit = (Compile.plan t.compiled lit).Compile.guard

let attempt t lit ~task mask =
  let fresh () =
    let closes = t.tasks.(task).closes in
    let lits = ref [] in
    for q = Array.length closes - 1 downto 0 do
      if mask land (1 lsl q) <> 0 then lits := fst closes.(q) :: !lits
    done;
    { e_guard = Guard.conj_all (List.map (guard t) !lits); e_attempts = [] }
  in
  let e =
    if mask < 0 then fresh () (* bit [Sys.int_size - 1]: not a table key *)
    else
      let memo = t.entailed.(task) in
      match Int_table.find memo mask with
      | e -> e
      | exception Not_found ->
          let e = fresh () in
          Int_table.replace memo mask e;
          e
  in
  match List.find_opt (fun a -> Literal.equal a.lit lit) e.e_attempts with
  | Some a -> a
  | None ->
      let a =
        {
          lit;
          entailed = e.e_guard;
          vetted = Gtable.cell (Guard.conj (guard t lit) e.e_guard);
        }
      in
      e.e_attempts <- a :: e.e_attempts;
      a

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
      (fun acc (rank, (task : Workflow_def.task)) ->
        List.fold_left
          (fun acc (ev, _, _) ->
            Symbol.Map.add
              (Task_model.symbol_of_event task.model ~instance:task.instance ev)
              rank acc)
          acc task.model.Task_model.significant)
      Symbol.Map.empty
      (List.mapi (fun rank task -> (rank, task)) wf.tasks)
  in
  let symbol_set =
    Symbol.Map.fold
      (fun sym _ acc -> Symbol.Set.add sym acc)
      owners (Compile.alphabet compiled)
  in
  let automata = List.map (fun d -> (d, Automaton.build d)) deps in
  let symbols = Array.of_list (Symbol.Set.elements symbol_set) in
  let index = Symbol_tbl.create (Array.length symbols) in
  Array.iteri (fun i sym -> Symbol_tbl.replace index sym i) symbols;
  let attr_of sym = Workflow_def.attribute_of wf sym in
  let demand =
    Array.map
      (fun sym ->
        if (attr_of sym).Attribute.triggerable then
          List.filter_map
            (fun (d, aut) ->
              if Literal.Set.mem (Literal.pos sym) (Expr.literals d) then
                Some aut
              else None)
            automata
        else [])
      symbols
  in
  (* Subscriptions: guard symbols of both polarities, the full alphabet
     of the demand automata, and the entailed complements' guards.
     Slots ascend with their symbols, so each subscriber array lists
     its actors in symbol order. *)
  let subscriptions = Array.make (Array.length symbols) [] in
  for i = Array.length symbols - 1 downto 0 do
    let sym = symbols.(i) in
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
        watch demand.(i)
    in
    Symbol.Set.iter
      (fun watched ->
        match Symbol_tbl.find_opt index watched with
        | Some w when w <> i -> subscriptions.(w) <- i :: subscriptions.(w)
        | _ -> ())
      watch
  done;
  (* Whom an actor sends to: its subscribers (requesters watch the
     symbol they ask) and the actors it watches (its pursuit targets and
     reservations), each found by a scan of their hashes; anything else,
     e.g. a symbol only an overriding guard mentions, by the index.
     On the 5-copy travel workflow a peer list holds 0 to 3 actors and
     every send resolves in the scan; against the index alone it read
     ~2% more travel runs/s and the same on travel-faulty (DESIGN §18,
     a 2-core VM).  The scan is [Gtable.index]'s, written out here
     because a shared helper in another module would be an unknown call
     under [-opaque] on every table step. *)
  let watched = Array.make (Array.length symbols) [] in
  Array.iteri
    (fun w subs -> List.iter (fun i -> watched.(i) <- w :: watched.(i)) subs)
    subscriptions;
  let route i =
    let peers =
      Array.of_list (List.sort_uniq Int.compare (subscriptions.(i) @ watched.(i)))
    in
    let hashes = Array.map (fun j -> Symbol.hash symbols.(j)) peers in
    fun sym ->
      let h = Symbol.hash sym and n = Array.length peers in
      let k = ref 0 in
      while
        !k < n
        && not (hashes.(!k) = h && Symbol.equal symbols.(peers.(!k)) sym)
      do
        incr k
      done;
      if !k < n then peers.(!k)
      else
        match Symbol_tbl.find_opt index sym with
        | Some j -> j
        | None -> Fmt.invalid_arg "no actor for %a" Symbol.pp sym
  in
  let actors =
    Array.mapi
      (fun i sym ->
        let guard lit = Gtable.cell (Compile.plan compiled lit).Compile.guard in
        let pos = Literal.pos sym and neg = Literal.neg sym in
        {
          sym;
          pos;
          neg;
          index = i;
          site = Workflow_def.site_of wf sym;
          attr = attr_of sym;
          guard_pos = guard pos;
          guard_neg = guard neg;
          demand_automata = demand.(i);
          task = Symbol.Map.find_opt sym owners;
          subscribers = Array.of_list subscriptions.(i);
          route = route i;
        })
      symbols
  in
  (* Agents name their events by the plan's own symbols, so a symbol an
     agent returns finds its slot by address. *)
  let canonical sym =
    match Symbol_tbl.find_opt index sym with Some i -> symbols.(i) | None -> sym
  in
  let tasks =
    Array.of_list
      (List.map
         (fun (task : Workflow_def.task) ->
           let agent =
             Agent.spec ~instance:task.instance ~model:task.model
               ~parametrize:task.parametrize ~canonical ()
           in
           let closes =
             Array.map
               (fun c ->
                 ( c,
                   Option.value ~default:(-1)
                     (Symbol_tbl.find_opt index (Literal.symbol c)) ))
               (Agent.complements agent)
           in
           { agent; closes })
         wf.tasks)
  in
  (* Runs start and close their tasks in the iteration order of a
     16-bucket [Hashtbl] keyed by instance: recorded traces and the
     behaviour pins depend on it. *)
  let task_order =
    let order = Hashtbl.create 16 in
    List.iteri
      (fun r t -> Hashtbl.replace order t.Workflow_def.instance r) wf.tasks;
    Array.of_list (List.rev (Hashtbl.fold (fun _ r acc -> r :: acc) order []))
  in
  {
    compiled;
    symbols = Array.to_list symbols;
    actors;
    index;
    tasks;
    task_order;
    entailed = Array.map (fun _ -> Int_table.create ()) tasks;
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

(* The workflow last planned, probed by physical identity before the
   structural key is built and hashed: a workflow is immutable, so the
   same value has the same plan. *)
let last : (Workflow_def.t * t) option ref = ref None

let () =
  Intern.register_clearer (fun () ->
      Key_tbl.reset memo;
      last := None)

let of_workflow (wf : Workflow_def.t) =
  let fresh () = Result.map (fun () -> build wf) (Workflow_def.validate wf) in
  if not (Intern.enabled ()) then fresh ()
  else
    match !last with
    | Some (wf', t) when wf' == wf -> Ok t
    | _ ->
        let key =
          ( Workflow_def.dependencies wf,
            List.map
              (fun (t : Workflow_def.task) ->
                (t.instance, t.model, t.site, t.parametrize))
              wf.tasks,
            wf.overrides )
        in
        let r =
          match Key_tbl.find_opt memo key with
          | Some t -> Ok t
          | None ->
              let r = fresh () in
              Result.iter (Key_tbl.add memo key) r;
              r
        in
        Result.iter (fun t -> last := Some (wf, t)) r;
        r
