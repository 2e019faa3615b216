let generates deps u =
  let guards =
    List.map (fun d -> (d, Expr.literals d)) deps
  in
  let rec go j = function
    | [] -> true
    | e :: rest ->
        List.for_all
          (fun (d, lits) ->
            (* Dependencies mentioning no event at all (the constants 0
               and T) still constrain generation: G(0,e) = 0. *)
            ((not (Literal.Set.mem e lits)) && not (Literal.Set.is_empty lits))
            || Guard.eval u j (Synth.guard d e))
          guards
        && go (j + 1) rest
  in
  go 0 u

(* One index per trace, shared by every dependency. *)
let violations deps u =
  let ix = Semantics.index u in
  List.filter (fun d -> not (Semantics.holds ix d)) deps

module For_testing = struct
  let theorem6_holds deps alphabet =
    List.for_all
      (fun u -> generates deps u = List.for_all (Semantics.satisfies u) deps)
      (Universe.maximal_traces alphabet)
end
