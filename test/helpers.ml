(* Shared test helpers: generators for random algebra expressions and
   traces over small alphabets, and Alcotest testables. *)

open Wf_core

let check = Alcotest.check
let checkb msg = Alcotest.check Alcotest.bool msg true

let expr_testable = Alcotest.testable Expr.pp Expr.equal_syntactic
let trace_testable = Alcotest.testable Trace.pp Trace.equal

let lit name =
  if String.length name > 0 && name.[0] = '~' then
    Literal.complement_of (String.sub name 1 (String.length name - 1))
  else Literal.event name

let e = Expr.event "e"
let f = Expr.event "f"
let g = Expr.event "g"
let ne = Expr.complement "e"
let nf = Expr.complement "f"
let ng = Expr.complement "g"

let alpha_ef = Universe.of_names [ "e"; "f" ]
let alpha_efg = Universe.of_names [ "e"; "f"; "g" ]

(* [u ⊨ d] via the denotation: the projection of the realized trace onto
   the dependency's own symbols must be one of [⟦d⟧]'s traces. *)
let satisfied_by_denotation dep trace =
  let alpha = Expr.symbols dep in
  let proj =
    List.filter (fun l -> Symbol.Set.mem (Literal.symbol l) alpha) trace
  in
  List.exists (Trace.equal proj) (Semantics.denotation alpha dep)

(* The bytes a buffer writer (a journal codec's encoder) produces. *)
let encoded write x =
  let b = Buffer.create 64 in
  write b x;
  Buffer.contents b

(* A network fault config that admits manual [Netsim.For_testing.crash_site] and
   injects nothing: a crash probability with a zero crash budget.  A
   config without crash capability refuses manual crashes, since the
   channel then sends without acknowledgement. *)
let manual_crashes =
  { Wf_sim.Netsim.no_faults with crash_on_deliver = 1.0; max_crashes = 0 }

(* --- Conformance seed streams -------------------------------------------- *)

(* Each sweep draws its seeds from a label-derived splitmix stream
   instead of the literal range 1..20: [base + i] ranges overlap across
   suites (the clean, faulty, and crash sweeps would all replay the
   same 20 schedules), whereas split streams are pairwise uncorrelated
   by construction.  The label is FNV-1a-hashed into the root seed, so
   adding a suite never perturbs another suite's stream.  The streams
   are pinned by [test_check]'s "seed streams are pinned" case: if this
   derivation changes, the pins must be updated consciously. *)
let suite_seeds label n =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    label;
  let stream = Wf_sim.Rng.split (Wf_sim.Rng.create !h) in
  (* explicit recursion: List.init's application order is unspecified,
     and the draws are stateful *)
  let rec draw k acc =
    if k = 0 then List.rev acc
    else draw (k - 1) (Wf_sim.Rng.next_int64 stream :: acc)
  in
  draw n []

(* --- QCheck generators --------------------------------------------------- *)

let symbol_names = [ "e"; "f"; "g" ]

let gen_literal_over names : Literal.t QCheck2.Gen.t =
  QCheck2.Gen.map2
    (fun name pos ->
      if pos then Literal.event name else Literal.complement_of name)
    (QCheck2.Gen.oneofl names)
    QCheck2.Gen.bool

let gen_literal = gen_literal_over symbol_names

(* Random expressions biased toward the shapes dependencies take:
   sums of short sequences, occasional conjunctions.  QCheck2 generators
   carry integrated shrinking, so a failing expression automatically
   shrinks toward a minimal counterexample (smaller size, then smaller
   subterms) — no hand-written shrinker needed. *)
let gen_expr_over ?(size = 8) names : Expr.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let gen_literal = gen_literal_over names in
  sized_size (int_bound size)
  @@ fix (fun self n ->
         if n <= 0 then
           oneof [ map Expr.atom gen_literal; return Expr.top; return Expr.zero ]
         else
           frequency
             [
               (2, map Expr.atom gen_literal);
               (3, map2 Expr.choice (self (n / 2)) (self (n / 2)));
               (3, map2 Expr.seq (self (n / 2)) (self (n / 2)));
               (1, map2 Expr.conj (self (n / 2)) (self (n / 2)));
             ])

let gen_expr = gen_expr_over symbol_names
let gen_expr_pair = QCheck2.Gen.pair gen_expr gen_expr
let gen_expr_triple = QCheck2.Gen.triple gen_expr gen_expr gen_expr

let gen_trace_over alphabet : Trace.t QCheck2.Gen.t =
  QCheck2.Gen.oneofl (Universe.traces alphabet)

let gen_maximal_trace alphabet : Trace.t QCheck2.Gen.t =
  QCheck2.Gen.oneofl (Universe.maximal_traces alphabet)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Deterministic property runner: the pinned seed (overridable through
   QCHECK_SEED, as in CI) makes every run replay the same cases, while
   failures still shrink through QCheck2's integrated shrinking. *)
let prop_seed () =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( try int_of_string s with _ -> 0xC0FFEE)
  | None -> 0xC0FFEE

let qprop ?(count = 200) ?print name gen prop =
  Alcotest.test_case name `Quick (fun () ->
      QCheck2.Test.check_exn
        ~rand:(Random.State.make [| prop_seed () |])
        (QCheck2.Test.make ~count ?print ~name gen prop))

(* --- Nearest-rank oracle ------------------------------------------------- *)

(* The exact per-sample summary that [Wf_obs.Metrics]' histogram
   quantiles are checked against.  Nearest-rank: percentile p of n
   sorted samples is the smallest sample such that at least p*n samples
   are <= it, i.e. index ceil(p*n) - 1 of the sorted array.  Truncating
   p*(n-1) instead biases high percentiles low: p99 of 50 samples would
   read index 48 instead of 49. *)
type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let nearest_rank sorted p =
  let n = Array.length sorted in
  let idx = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  sorted.(Int.max 0 (Int.min (n - 1) idx))

let summarize samples =
  if samples = [] then invalid_arg "Helpers.summarize: no samples";
  let arr = Array.of_list samples in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  {
    n;
    mean = Array.fold_left ( +. ) 0.0 arr /. float_of_int n;
    min = arr.(0);
    max = arr.(n - 1);
    p50 = nearest_rank arr 0.50;
    p95 = nearest_rank arr 0.95;
    p99 = nearest_rank arr 0.99;
  }
