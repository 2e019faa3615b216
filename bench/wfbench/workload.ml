(* The four workloads by name, in BENCHMARK.json order. *)

let names = [ "travel"; "travel-faulty"; "fleet-saga"; "param-burst" ]

let measure ~workload ~traced ~smoke ~seconds ~seed =
  let outcome : Run.outcome =
    match workload with
    | "travel" | "travel-faulty" ->
        let faulty = workload = "travel-faulty" in
        if traced then Travel.trace ~faulty ~smoke ~seconds ~seed
        else Travel.run ~faulty ~smoke ~seconds ~seed
    | "fleet-saga" -> Saga.fleet ~traced ~smoke ~seconds ~seed
    | "param-burst" -> Saga.param ~traced ~smoke ~seconds ~seed
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  {
    Run.workload;
    mode = (if smoke then "smoke" else "full");
    traced;
    seed;
    outcome = { outcome with metrics = Run.complete ~traced outcome.metrics };
  }
