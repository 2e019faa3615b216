let rec sat u i (g : Formula.t) =
  match g with
  | Formula.Zero -> false
  | Formula.Top -> true
  | Formula.Atom l ->
      (* Semantics 7: the literal occurred within the first [i] events. *)
      Trace.mem l (Trace.prefix i u)
  | Formula.Or (a, b) -> sat u i a || sat u i b
  | Formula.And (a, b) -> sat u i a && sat u i b
  | Formula.Seq (a, b) ->
      (* Semantics 9: some split index [j ≤ i] satisfies [a] on the
         prefix part and [b] on the suffix trace, at the shifted index. *)
      let rec exists_j j =
        j <= i
        && ((sat u j a && sat (Trace.suffix j u) (i - j) b) || exists_j (j + 1))
      in
      exists_j 0
  | Formula.Always a ->
      let n = Trace.length u in
      let rec all_j j = j > n || (sat u j a && all_j (j + 1)) in
      all_j i
  | Formula.Eventually a ->
      let n = Trace.length u in
      let rec some_j j = j <= n && (sat u j a || some_j (j + 1)) in
      some_j i
  | Formula.Not a -> not (sat u i a)

let points alphabet =
  List.concat_map
    (fun u -> List.init (Trace.length u + 1) (fun i -> (u, i)))
    (Universe.maximal_traces alphabet)

let equivalent ?alphabet a b =
  let alpha =
    match alphabet with
    | Some s -> s
    | None -> Symbol.Set.union (Formula.symbols a) (Formula.symbols b)
  in
  List.for_all (fun (u, i) -> sat u i a = sat u i b) (points alpha)

module For_testing = struct
  let entails ?alphabet a b =
    let alpha =
      match alphabet with
      | Some s -> s
      | None -> Symbol.Set.union (Formula.symbols a) (Formula.symbols b)
    in
    List.for_all (fun (u, i) -> (not (sat u i a)) || sat u i b) (points alpha)
end
