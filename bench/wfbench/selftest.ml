(* Fast checks of the benchmark itself: nearest-rank percentiles against
   hand-computed values, the fastest-piece estimates, the compare
   verdict rules, the metric catalog against BENCHMARK.json, and a
   --smoke pass of all four workloads with tracing off and on. *)

open Wfbench_lib

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let percentiles () =
  let a = [| 40.; 15.; 50.; 35.; 20. |] in
  check "p30 of 5 samples is the 2nd smallest" (Quantile.percentile a 0.30 = 20.);
  check "p40 of 5 samples is the 2nd smallest" (Quantile.percentile a 0.40 = 20.);
  check "p50 of 5 samples is the 3rd smallest" (Quantile.median a = 35.);
  check "p100 is the maximum" (Quantile.percentile a 1.0 = 50.);
  check "p0 is the minimum" (Quantile.percentile a 0.0 = 15.);
  check "input order does not matter" (Quantile.median [| 3.; 1.; 2. |] = 2.);
  let h = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p99 of 1..100 is 99" (Quantile.percentile h 0.99 = 99.);
  check "p29 of 1..100 is 29 despite float rounding" (Quantile.percentile h 0.29 = 29.);
  check "quartiles of 1..8 are 2, 4, 6"
    (Quantile.quartiles (Array.init 8 (fun i -> float_of_int (i + 1))) = (2., 4., 6.));
  check "p50 of no samples is nan" (Float.is_nan (Quantile.median [||]))

let estimates () =
  check "each piece keeps its fastest time over the rounds"
    (Run.fastest [ [| 3.; 1.; 5. |]; [| 2.; 4.; 5. |]; [| 9.; 9.; 4. |] ] = [| 2.; 1.; 4. |]);
  check "rounds that timed different pieces are refused"
    (match Run.fastest [ [| 1.; 2. |]; [| 1. |] ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let round ?(slowdown = 1.) pieces calls =
    let refs = [| Run.reference_s *. slowdown; Run.reference_s *. slowdown *. 3. |] in
    { Run.empty with instances = 10; events = 40; pieces; refs; calls }
  in
  let rs =
    [ round [| 2.; 3. |] [| 5.; 7.; 9. |]; round [| 1.; 4. |] [| 6.; 6.; 8. |] ]
  in
  check "rates divide one round's work by the sum of the fastest pieces"
    (List.assoc "runs_per_s" (Run.estimate rs) = 10. /. 4.
    && List.assoc "events_per_s" (Run.estimate rs) = 40. /. 4.);
  check "call latency is the median of each call's fastest time"
    (List.assoc "call_us_p50" (Run.estimate rs) = 6.);
  let slow =
    [
      round ~slowdown:2. [| 4.; 6. |] [| 10.; 12.; 14. |];
      round [| 8.; 8. |] [| 20.; 20.; 20. |];
    ]
  in
  check "times are scaled by the reference loop's fastest run"
    (Run.slowdown slow = 1.
    && List.assoc "runs_per_s" (Run.estimate slow) = 10. /. 10.
    && List.assoc "call_us_p50" (Run.estimate slow) = 12.);
  let uniformly = [ round ~slowdown:2. [| 4.; 6. |] [| 10.; 12.; 14. |] ] in
  check "a core slower by the same factor as the reference loop reads the same"
    (Run.slowdown uniformly = 2.
    && List.assoc "runs_per_s" (Run.estimate uniformly) = 10. /. 5.
    && List.assoc "call_us_p50" (Run.estimate uniformly) = 6.)

let side ?samples value q1 q3 =
  { Verdict.value; q1; q3; samples = Option.value samples ~default:[| q1; value; q3 |] }

let verdicts () =
  let judge better a b = Verdict.judge ~better ~bound:0.1 a b in
  let base = side 100. 99. 101. in
  check "5% slower within a 10% bound is unchanged"
    (judge Run.Lower base (side 105. 104. 106.) = Verdict.Unchanged);
  check "20% slower is regressed"
    (judge Run.Lower base (side 120. 119. 121.) = Verdict.Regressed);
  check "20% faster is improved"
    (judge Run.Lower base (side 80. 79. 81.) = Verdict.Improved);
  check "20% more throughput is improved"
    (judge Run.Higher base (side 120. 119. 121.) = Verdict.Improved);
  check "20% less throughput is regressed"
    (judge Run.Higher base (side 80. 79. 81.) = Verdict.Regressed);
  let wide = side 100. 80. 120. in
  check "spread over the bound is unresolved"
    (judge Run.Lower wide (side 125. 100. 140.) = Verdict.Unresolved);
  check "spread over the bound, every new sample better: improved"
    (judge Run.Lower wide (side ~samples:[| 60.; 70.; 75. |] 70. 60. 75.)
    = Verdict.Improved);
  check "spread over the bound, every new sample better but close: unchanged"
    (judge Run.Lower (side ~samples:[| 95.; 100.; 130. |] 100. 95. 130.)
       (side ~samples:[| 90.; 93.; 94. |] 93. 90. 94.)
    = Verdict.Unchanged);
  check "gain is signed toward better"
    (Verdict.gain ~better:Run.Lower base (side 90. 90. 90.) > 0.
    && Verdict.gain ~better:Run.Higher base (side 90. 90. 90.) < 0.)

(* BENCHMARK.json sits at the project root; dune copies it next to the
   build tree. *)
let catalog () =
  let open Wf_obs.Json in
  let spec =
    match
      parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all)
    with
    | Ok j -> j
    | Error e -> failwith e
  in
  let items k = match member k spec with Some (List l) -> l | _ -> [] in
  let s k j = Option.bind (member k j) to_string_opt in
  check "BENCHMARK.json lists the end-to-end catalog"
    (List.map (fun j -> (s "name" j, s "unit" j, s "better" j)) (items "end_to_end")
    = List.map
        (fun (n, u, b) ->
          (Some n, Some u, Some (if b = Run.Lower then "lower" else "higher")))
        Run.end_to_end);
  check "BENCHMARK.json lists the per-layer catalog"
    (List.map (fun j -> (s "name" j, s "unit" j)) (items "per_layer")
    = List.map (fun (n, u) -> (Some n, Some u)) Run.per_layer);
  check "BENCHMARK.json lists the workloads"
    (List.map (s "name") (items "workloads") = List.map Option.some Workload.names)

let smoke () =
  List.iter
    (fun traced ->
      List.iter
        (fun w ->
          let t = Workload.measure ~workload:w ~traced ~smoke:true ~seconds:1.0 ~seed:7 in
          let o = t.outcome in
          let label =
            Printf.sprintf "%s %s smoke" w (if traced then "traced" else "untraced")
          in
          check (label ^ ": correct") (Run.correct o && o.attempted > 0);
          check (label ^ ": every metric finite")
            (List.for_all (fun (m : Run.metric) -> Float.is_finite m.value) o.metrics);
          if not traced then
            check (label ^ ": every end-to-end metric positive")
              (List.for_all (fun (m : Run.metric) -> m.value > 0.) o.metrics))
        Workload.names)
    [ false; true ]

let () =
  percentiles ();
  estimates ();
  verdicts ();
  catalog ();
  smoke ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
