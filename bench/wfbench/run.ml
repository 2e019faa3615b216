(* What one workload process measures: the metric catalog (which must
   match BENCHMARK.json), the measurement loop shared by every workload,
   and the two JSON lines the process prints. *)

type better = Lower | Higher

(* Reported by every workload with tracing off.  The meaning per
   workload is in README.md. *)
let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("runs_per_s", "1/s", Higher);
    ("events_per_s", "1/s", Higher);
    ("call_us_p50", "us", Lower);
  ]

(* Reported by every workload in the traced run; 0 where the workload
   bypasses the layer. *)
let per_layer =
  [
    ("compile.cold_ms", "ms");
    ("automaton.build_ms", "ms");
    ("gtable.compile_ms", "ms");
    ("gtable.states", "count");
    ("gtable.uncompilable", "count");
    ("event_sched.traced_run_ms", "ms");
    ("event_sched.prologue_ms", "ms");
    ("event_sched.epilogue_ms", "ms");
    ("actor.assim_ms", "ms");
    ("actor.assims", "count");
    ("actor.parked_evals_per_event", "ratio");
    ("actor.promises_per_event", "ratio");
    ("actor.reservations_per_event", "ratio");
    ("netsim.deliver_ms", "ms");
    ("netsim.send_ms", "ms");
    ("netsim.deliveries", "count");
    ("netsim.sends", "count");
    ("channel.ms", "ms");
    ("channel.retransmits", "count");
    ("channel.dups_suppressed", "count");
    ("journal.ms", "ms");
    ("journal.appends_per_event", "ratio");
    ("journal.syncs_per_event", "ratio");
    ("journal.bytes_per_event", "B");
    ("journal.replayed_entries", "count");
    ("journal.recoveries", "count");
    ("flow.ms", "ms");
    ("flow.credits_granted_per_event", "ratio");
    ("flow.sends_blocked", "count");
    ("flow.mailbox_rejects", "count");
    ("flow.shed_per_job", "ratio");
    ("flow.probe_admits", "count");
    ("fleet.attempt_us_p50", "us");
    ("fleet.attempt_us_p99", "us");
    ("fleet.table_call_us_p50", "us");
    ("fleet.symbolic_call_us_p50", "us");
    ("fleet.symbolic_share", "ratio");
    ("fleet.table_steps_per_input", "ratio");
    ("fleet.stall_s", "s");
    ("fleet.stall_calls", "count");
    ("fleet.checkpoint_stall_s", "s");
    ("fleet.state_words_per_binding", "words");
    ("param_sched.attempt_us_p50", "us");
    ("param_sched.attempt_us_p99", "us");
    ("param_sched.busy_us_p50", "us");
    ("param_sched.work_per_input", "ratio");
    ("param_sched.parked_peak", "count");
    ("call_us_p99", "us");
    ("trace.overhead_share", "ratio");
    ("gc.minor_words_per_input", "words");
    ("gc.major_collections", "count");
    ("makespan_p50", "vt");
    ("msgs_per_event", "ratio");
    ("goodput_share", "ratio");
    ("bytes_per_instance", "B");
  ]

type metric = {
  name : string;
  unit_ : string;
  value : float;
      (** per-layer and [setup_s]: the median over [samples]; the other
          end-to-end metrics: estimated from all the rounds together *)
  q1 : float;
  q3 : float;
  n : int;  (** rounds or set-ups behind [value] *)
  samples : float array;
      (** one per round or set-up; for an estimate, one per group of
          rounds *)
}

(* What a workload measured. *)
type outcome = {
  rounds : int;
  attempted : int;  (** workflow instances run *)
  failed : int;  (** instances that failed a correctness check *)
  checks : (string * bool) list;
  metrics : metric list;
}

type t = {
  workload : string;
  mode : string;  (** "full" or "smoke" *)
  traced : bool;
  seed : int;
  outcome : outcome;
}

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) end_to_end with
  | Some (_, u, _) -> u
  | None -> (
      match List.assoc_opt name per_layer with
      | Some u -> u
      | None -> invalid_arg ("wfbench: unknown metric " ^ name))

(* Median over [samples]. *)
let of_rounds name samples =
  let q1, m, q3 = Quantile.quartiles samples in
  { name; unit_ = unit_of name; value = m; q1; q3; n = Array.length samples; samples }

(* Every catalog metric exactly once, in catalog order; missing ones are
   0, the value of a layer the workload bypasses. *)
let complete ~traced metrics =
  let names =
    if traced then List.map fst per_layer
    else List.map (fun (n, _, _) -> n) end_to_end
  in
  List.iter
    (fun m ->
      if not (List.mem m.name names) then
        invalid_arg ("wfbench: metric outside the catalog: " ^ m.name))
    metrics;
  List.map
    (fun name ->
      match List.find_opt (fun m -> m.name = name) metrics with
      | Some m -> m
      | None -> of_rounds name [| 0.0 |])
    names

(* --- measurement ------------------------------------------------------ *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
let us_since t0 = float_of_int (now_ns () - t0) /. 1e3

(* Work between two [Gc.quick_stat]s, in words allocated. *)
let alloc_words (s0 : Gc.stat) (s1 : Gc.stat) =
  s1.minor_words -. s0.minor_words +. s1.major_words -. s0.major_words
  -. (s1.promoted_words -. s0.promoted_words)

let major_collections (s0 : Gc.stat) (s1 : Gc.stat) =
  float_of_int (s1.major_collections - s0.major_collections)

(* The benchmark's reference loop: register arithmetic only, with no
   memory traffic and no allocation, so nothing the program does changes
   its speed; only the speed of the core does. *)
let reference () =
  let x = ref 88172645463325252 and s = ref 0 in
  for _ = 1 to 20_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    s := !s + ((!x * 31) lsr 3);
    if !s land 3 = 0 then s := !s lxor !x
  done;
  !s

(* Every time is reported on the scale of a core that runs [reference]
   in this long, about its fastest time on the 2-core x86-64 VM the
   baseline comes from. *)
let reference_s = 120e-6

(* Runs [reference] and returns its wall time. *)
let time_reference () =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (reference ()));
  float_of_int (now_ns () - t0) /. 1e9

(* The reference loop runs after every this many pieces, untimed by the
   pieces, so that it samples the core through the whole timed loop. *)
let reference_every = 16

(* The wall time of a timed loop, cut into pieces of [len] consecutive
   steps: create it just before the loop, [tick] it after every step and
   [finish] it after the last. *)
type pieces = {
  len : int;
  mutable steps : int;
  mutable mark : int;
  mutable cuts : int;
  mutable times : float list;  (** seconds, latest first *)
  mutable refs : float list;  (** reference loop times, seconds *)
}

let pieces len = { len; steps = 0; mark = now_ns (); cuts = 0; times = []; refs = [] }

let cut p =
  let t = now_ns () in
  p.times <- (float_of_int (t - p.mark) /. 1e9) :: p.times;
  p.cuts <- p.cuts + 1;
  if p.cuts mod reference_every = 0 then begin
    p.refs <- time_reference () :: p.refs;
    p.mark <- now_ns ()
  end
  else p.mark <- t

let tick p =
  p.steps <- p.steps + 1;
  if p.steps mod p.len = 0 then cut p

(* The pieces' times and the reference loop's, which runs once more
   here so that every round has at least one. *)
let finish p =
  if p.steps mod p.len <> 0 then cut p;
  (Array.of_list (List.rev p.times), Array.of_list (time_reference () :: p.refs))

(* What one round measured.  An untraced round fills the timing fields,
   a traced round [layers].  Every round of a workload does the same
   work: the same instances, timed in the same pieces, with the same
   calls. *)
type round = {
  checked : int;  (** instances run and verified *)
  failed : int;  (** of which failed a correctness check *)
  flags : (string * bool) list;  (** further checks, e.g. trace transparency *)
  instances : int;  (** timed instances *)
  events : int;  (** engine events or inputs in the timed instances *)
  pieces : float array;  (** wall time of each piece of the timed loop, s *)
  refs : float array;  (** wall time of each reference loop run among them, s *)
  calls : float array;  (** wall time of each client call that enables an event, us *)
  layers : (string * float) list;
}

let empty =
  {
    checked = 0;
    failed = 0;
    flags = [];
    instances = 0;
    events = 0;
    pieces = [||];
    refs = [||];
    calls = [||];
    layers = [];
  }

(* Cold set-ups timed at the start of every round, each after the memo
   tables are emptied, so they sample the same machine states as the
   rounds. *)
let setups_per_round = 5

(* Run [round i] for i = 0, 1, ... until [seconds] have passed (at least
   twice; exactly twice in smoke mode).  Each round starts from empty
   memo tables and a compacted heap, so no round inherits another's
   caches or garbage.  Returns the set-up times and the rounds. *)
let rounds ~smoke ~seconds ?setup round =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let setups = ref [] in
  let rec go i acc =
    if i >= 2 && (smoke || now_ns () >= deadline) then
      (Array.of_list !setups, List.rev acc)
    else begin
      Gc.compact ();
      Option.iter
        (fun f ->
          for _ = 1 to setups_per_round do
            Wf_core.Intern.clear_memos ();
            let t0 = now_ns () in
            ignore (Sys.opaque_identity (f ()));
            setups := seconds_since t0 :: !setups
          done)
        setup;
      Wf_core.Intern.clear_memos ();
      let r = round i in
      go (i + 1) (r :: acc)
    end
  in
  go 0 []

(* The faster half of the set-up times. *)
let faster_half xs =
  let s = Quantile.sorted xs in
  Array.sub s 0 ((Array.length s + 1) / 2)

(* Element by element, the least of equally long arrays. *)
let fastest = function
  | [] -> [||]
  | a :: rest ->
      let best = Array.copy a in
      List.iter
        (fun b ->
          if Array.length b <> Array.length best then
            invalid_arg "wfbench: rounds of one workload did different work";
          Array.iteri (fun i x -> if x < best.(i) then best.(i) <- x) b)
        rest;
      best

(* How much slower than the reference core this process ran: the
   reference loop's fastest time over the rounds, against
   [reference_s]. *)
let slowdown rs =
  let best = ref infinity in
  List.iter (fun r -> Array.iter (fun t -> best := Float.min !best t) r.refs) rs;
  !best /. reference_s

(* The end-to-end figures of a set of rounds.  Other tenants of a shared
   host slow the program in episodes from a fraction of a second to
   minutes, by up to a half, and the process's CPU time slows with its
   wall time.  Two steps take that out.  First, every round repeats the
   same work, so each piece of it and each call has been timed once per
   round; its fastest time is what it costs on the least disturbed core
   this process saw.  A round's wall time is the sum of its pieces'
   fastest times, and the call latency is the median of the calls'
   fastest times.  Every piece and every call still counts, so a
   slowdown of any of them moves the figures.  Second, the host's own
   speed drifts over minutes, and so does the least disturbed core: both
   are divided by the [slowdown] the reference loop saw over the same
   rounds. *)
let estimate rs =
  let r0 = List.hd rs in
  List.iter
    (fun r ->
      if r.instances <> r0.instances || r.events <> r0.events then
        invalid_arg "wfbench: rounds of one workload did different work")
    rs;
  let slowdown = slowdown rs in
  let wall =
    Array.fold_left ( +. ) 0.0 (fastest (List.map (fun r -> r.pieces) rs)) /. slowdown
  in
  [
    ("runs_per_s", float_of_int r0.instances /. wall);
    ("events_per_s", float_of_int r0.events /. wall);
    ( "call_us_p50",
      Quantile.median (fastest (List.map (fun r -> r.calls) rs)) /. slowdown );
  ]

(* The rounds dealt into this many groups, each estimated alone, give
   the spread of the estimate. *)
let groups = 4

let estimated rs =
  let per_group =
    List.init
      (min groups (List.length rs))
      (fun g -> estimate (List.filteri (fun i _ -> i mod groups = g) rs))
  in
  List.map
    (fun (name, value) ->
      let samples = Array.of_list (List.map (List.assoc name) per_group) in
      let q1, _, q3 = Quantile.quartiles samples in
      { name; unit_ = unit_of name; value; q1; q3; n = List.length rs; samples })
    (estimate rs)

let outcome ~traced ~check (setups, rs) =
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let failed = sum (fun r -> r.failed) in
  let flags =
    List.map
      (fun (k, _) -> (k, List.for_all (fun r -> List.assoc k r.flags) rs))
      (match rs with r :: _ -> r.flags | [] -> [])
  in
  let metrics =
    if traced then
      List.map
        (fun (name, _) ->
          of_rounds name
            (Array.of_list (List.map (fun r -> List.assoc name r.layers) rs)))
        (match rs with r :: _ -> r.layers | [] -> [])
    else
      let slowdown = slowdown rs in
      of_rounds "setup_s" (Array.map (fun s -> s /. slowdown) (faster_half setups))
      :: estimated rs
  in
  {
    rounds = List.length rs;
    attempted = sum (fun r -> r.checked);
    failed;
    checks = (check, failed = 0) :: flags;
    metrics;
  }

(* --- output ----------------------------------------------------------- *)

(* All digits, so that no run-to-run difference is rounded away.  A
   percentile over no samples is reported as 0. *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let metric_json m =
  Printf.sprintf
    "{\"unit\":%s,\"value\":%s,\"q1\":%s,\"q3\":%s,\"n\":%d,\"samples\":[%s]}"
    (Wf_obs.Json.quote m.unit_) (num m.value) (num m.q1) (num m.q3) m.n
    (String.concat "," (Array.to_list (Array.map num m.samples)))

let correct (o : outcome) = o.failed = 0 && List.for_all snd o.checks

let checks_json o =
  String.concat ","
    (List.map
       (fun (k, ok) -> Printf.sprintf "%s:%b" (Wf_obs.Json.quote k) ok)
       o.checks)

(* The full record: what `wfbench run` and `wfbench trace` collect. *)
let detail_json t =
  let o = t.outcome in
  Printf.sprintf
    "{\"workload\":%s,\"mode\":%s,\"traced\":%b,\"seed\":%d,\"rounds\":%d,\
     \"attempted\":%d,\"failed\":%d,\"correct\":%b,\"checks\":{%s},\"metrics\":{%s}}"
    (Wf_obs.Json.quote t.workload) (Wf_obs.Json.quote t.mode) t.traced t.seed
    o.rounds o.attempted o.failed (correct o) (checks_json o)
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf "%s:%s" (Wf_obs.Json.quote m.name) (metric_json m))
          o.metrics))

(* The last line of a workload process: value and unit per metric. *)
let summary_json o =
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    (correct o) o.attempted o.failed
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}"
              (Wf_obs.Json.quote m.name) (num m.value)
              (Wf_obs.Json.quote m.unit_))
          o.metrics))

let pp_table oc t =
  let o = t.outcome in
  Printf.fprintf oc
    "workload %s (%s, %s, seed %d, %d rounds): %d/%d instances correct\n"
    t.workload t.mode
    (if t.traced then "traced" else "untraced")
    t.seed o.rounds (o.attempted - o.failed) o.attempted;
  List.iter
    (fun (k, ok) ->
      Printf.fprintf oc "  check %-56s %s\n" k (if ok then "ok" else "FAILED"))
    o.checks;
  List.iter
    (fun m ->
      Printf.fprintf oc "  %-32s %14.6g %-6s  q1 %.6g  q3 %.6g  n %d\n" m.name
        m.value m.unit_ m.q1 m.q3 m.n)
    o.metrics
