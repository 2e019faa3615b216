let pi d = Automaton.accepted_paths (Automaton.build d)

let sequence_guard path e =
  let rec split before = function
    | [] -> None
    | x :: after ->
        if Literal.equal x e then Some (List.rev before, after)
        else split (x :: before) after
  in
  match split [] path with
  | None -> Guard.bottom
  | Some (before, after) ->
      let boxes = List.map Guard.has before in
      let nots = List.map Guard.hasnt after in
      let future =
        match Term.make after with
        | Some tau -> Guard.will_term tau
        | None -> Guard.bottom
      in
      Guard.conj_all (boxes @ nots @ [ future ])

module For_testing = struct
  let guard_via_paths d e =
    Guard.sum_all (List.map (fun path -> sequence_guard path e) (pi d))
end
