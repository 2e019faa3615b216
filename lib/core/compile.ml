type event_plan = {
  literal : Literal.t;
  guard : Guard.t;
  watched : Symbol.Set.t;
}

type t = {
  deps : Expr.t list;
  alphabet : Symbol.Set.t;
  table : event_plan Literal.Map.t;
}

(* An event's guard is the conjunction of the guards its dependencies
   give it, in dependency order; the fold collects them reversed. *)
let compile_uncached deps =
  let rev_guards =
    List.fold_left
      (fun acc d ->
        List.fold_left
          (fun acc (l, g) ->
            Literal.Map.update l
              (fun gs -> Some (g :: Option.value gs ~default:[]))
              acc)
          acc (Synth.guards d))
      Literal.Map.empty deps
  in
  let table =
    Literal.Map.mapi
      (fun literal gs ->
        let guard = Guard.conj_all (List.rev gs) in
        let watched =
          Symbol.Set.remove (Literal.symbol literal) (Guard.symbols guard)
        in
        { literal; guard; watched })
      rev_guards
  in
  let alphabet =
    Literal.Map.fold
      (fun l _ acc -> Symbol.Set.add (Literal.symbol l) acc)
      table Symbol.Set.empty
  in
  { deps; alphabet; table }

(* One compilation per dependency list, keyed structurally: every run of
   a workflow compiles the same dependencies. *)
module Deps_tbl = Hashtbl.Make (struct
  type t = Expr.t list

  let equal = List.equal Expr.equal_syntactic

  let hash deps =
    List.fold_left (fun h d -> ((h * 31) + Expr.hash d) land max_int) 17 deps
end)

let memo : t Deps_tbl.t = Deps_tbl.create 16
let () = Intern.register_clearer (fun () -> Deps_tbl.reset memo)

let compile deps =
  if not (Intern.enabled ()) then compile_uncached deps
  else
    match Deps_tbl.find_opt memo deps with
    | Some t -> t
    | None ->
        let t = compile_uncached deps in
        Deps_tbl.add memo deps t;
        t

let dependencies t = t.deps
let alphabet t = t.alphabet

let plan t literal =
  match Literal.Map.find_opt literal t.table with
  | Some p -> p
  | None ->
      { literal; guard = Guard.top; watched = Symbol.Set.empty }

let plans t = List.map snd (Literal.Map.bindings t.table)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun p ->
      Format.fprintf ppf "G(%a) = %a@," Literal.pp p.literal Guard.pp p.guard)
    (plans t);
  Format.fprintf ppf "@]"
