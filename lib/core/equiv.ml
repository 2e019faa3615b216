let joint_alphabet a b = Symbol.Set.union (Expr.symbols a) (Expr.symbols b)

let universe ?alphabet a b =
  let alpha = match alphabet with Some s -> s | None -> joint_alphabet a b in
  Universe.traces alpha

let equal ?alphabet a b =
  List.for_all
    (fun u -> Semantics.satisfies u a = Semantics.satisfies u b)
    (universe ?alphabet a b)

let is_zero ?alphabet e = equal ?alphabet e Expr.Zero
let is_top ?alphabet e = equal ?alphabet e Expr.Top

module For_testing = struct
  let entails ?alphabet a b =
    List.for_all
      (fun u -> (not (Semantics.satisfies u a)) || Semantics.satisfies u b)
      (universe ?alphabet a b)
end
