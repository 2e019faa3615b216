(* The parametrized workloads: one saga template, ~c[x] + p[x].c[x]
   ("commit only after prepare, or never commit"), over many bindings x.

   [fleet-saga] replays, for 10^5 bindings, a Poisson virtual-time schedule of commit
   attempts and prepare occurrences (each prepare an exponential lag,
   mean 8 inter-arrivals, after its commit) through the arena-backed
   Fleet engine as fast as it will go.  Its state is far larger than the
   caches; the network, channel and automaton layers are bypassed.

   [param-burst] drives the symbolic Param_sched behind Flow admission
   with 64 synchronized open-loop sources at half the estimated capacity,
   under a virtual service model that charges each engine input a fixed
   quantum plus a share per decision evaluated: sheds, backoff, parked
   re-decides and probe admissions all do work, yet the backlog stays
   bounded. *)

open Wf_core
open Wf_scheduler

let template =
  Ptemplate.choice_all
    [
      Ptemplate.atom ~pol:Literal.Neg "c" [ Ptemplate.Var "x" ];
      Ptemplate.seq
        (Ptemplate.atom "p" [ Ptemplate.Var "x" ])
        (Ptemplate.atom "c" [ Ptemplate.Var "x" ]);
    ]

let sym base j = Symbol.parametrized base [ string_of_int j ]

(* Bindings that did not end with p(j) then c(j), each exactly once,
   both positive — read off the realized trace after the timed loop. *)
let audit ~n trace =
  let pos_p = Array.make n (-1) and pos_c = Array.make n (-1) in
  let broken = Array.make n false in
  List.iteri
    (fun i (l : Literal.t) ->
      let s = Literal.symbol l in
      match Symbol.args s with
      | [ tok ] -> (
          let j = int_of_string tok in
          let a = if Symbol.base s = "p" then pos_p else pos_c in
          if a.(j) >= 0 || not (Literal.is_pos l) then broken.(j) <- true
          else a.(j) <- i)
      | _ -> ())
    trace;
  let failed = ref 0 in
  for j = 0 to n - 1 do
    if broken.(j) || pos_p.(j) < 0 || pos_c.(j) < pos_p.(j) then incr failed
  done;
  !failed

let live_words () =
  Gc.compact ();
  (Gc.stat ()).live_words

let pct a p = if Array.length a = 0 then 0.0 else Quantile.percentile a p

(* --- fleet-saga -------------------------------------------------------- *)

type schedule = {
  commit : bool array;  (** a commit attempt, else a prepare occurrence *)
  syms : Symbol.t array;
  lits : Literal.t array;
}

let fleet_schedule ~n ~seed =
  let rng = Wf_sim.Rng.create (Int64.of_int seed) in
  let m = 2 * n in
  let times = Array.make m 0.0 in
  let t = ref 0.0 in
  for j = 0 to n - 1 do
    t := !t +. Wf_sim.Rng.exponential rng ~mean:1.0;
    times.(2 * j) <- !t;
    times.((2 * j) + 1) <- !t +. Wf_sim.Rng.exponential rng ~mean:8.0
  done;
  let order = Array.init m (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Float.compare times.(a) times.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  let commit = Array.map (fun slot -> slot land 1 = 0) order in
  let syms =
    Array.map (fun slot -> sym (if slot land 1 = 0 then "c" else "p") (slot / 2)) order
  in
  { commit; syms; lits = Array.map Literal.pos syms }

(* A fleet checkpoint encodes the whole arena, so the cadence scales with
   the fleet: about 32 checkpoints per round. *)
let cadence n = max 1024 (n / 16)

let fleet_create n () = Fleet.create ~checkpoint_every:(cadence n) [ template ]

(* Inputs per timed piece of a fleet round. *)
let fleet_piece = 1024

let fleet_round ~traced ~n sched =
  let m = 2 * n in
  let live0 = if traced then live_words () else 0 in
  let g0 = Gc.quick_stat () in
  let eng = fleet_create n () in
  let stats = Fleet.stats eng in
  let symbolic () = Wf_obs.Metrics.count stats "fleet_symbolic_evals" in
  (* Wall time of every call, and (traced) whether it fell back to
     symbolic evaluation. *)
  let call_us = Array.make m 0.0 and on_symbolic = Array.make m false in
  let refused = ref 0 in
  let pieces = Run.pieces fleet_piece in
  for i = 0 to m - 1 do
    let s0 = if traced then symbolic () else 0 in
    let t = Run.now_ns () in
    (if sched.commit.(i) then
       match Fleet.attempt eng sched.syms.(i) with
       | Parked | Accepted | Already -> ()
       | Rejected | Busy _ -> incr refused
     else Fleet.occurred eng sched.lits.(i));
    call_us.(i) <- Run.us_since t;
    if traced then on_symbolic.(i) <- symbolic () > s0;
    Run.tick pieces
  done;
  let pieces, refs = Run.finish pieces in
  let g1 = Gc.quick_stat () in
  let select p =
    let acc = ref [] in
    for i = m - 1 downto 0 do
      if p i then acc := call_us.(i) :: !acc
    done;
    Array.of_list !acc
  in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  let failed =
    if Fleet.parked_count eng <> 0 || !refused > 0 then n else audit ~n (Fleet.trace eng)
  in
  let layers =
    if not traced then []
    else begin
      let live1 = live_words () in
      let stalls = select (fun i -> call_us.(i) > 1e3) in
      (* a fleet checkpoint is taken inside every [cadence n]-th call *)
      let at_checkpoints = select (fun i -> (i + 1) mod cadence n = 0) in
      let n_symbolic =
        Array.fold_left (fun c b -> if b then c + 1 else c) 0 on_symbolic
      in
      let fn = float_of_int n and fm = float_of_int m in
      [
        ("fleet.attempt_us_p50", pct (select (fun i -> sched.commit.(i))) 0.5);
        ("fleet.attempt_us_p99", pct (select (fun i -> sched.commit.(i))) 0.99);
        ("fleet.table_call_us_p50", pct (select (fun i -> not on_symbolic.(i))) 0.5);
        ("fleet.symbolic_call_us_p50", pct (select (fun i -> on_symbolic.(i))) 0.5);
        ("fleet.symbolic_share", float_of_int n_symbolic /. fm);
        ( "fleet.table_steps_per_input",
          float_of_int (Wf_obs.Metrics.count stats "fleet_table_steps") /. fm );
        ("fleet.stall_s", sum stalls /. 1e6);
        ("fleet.stall_calls", float_of_int (Array.length stalls));
        ("fleet.checkpoint_stall_s", sum at_checkpoints /. 1e6);
        ("fleet.state_words_per_binding", float_of_int (Fleet.state_words eng) /. fn);
        ("call_us_p99", pct (select (fun i -> not sched.commit.(i))) 0.99);
        ("gc.minor_words_per_input", Run.alloc_words g0 g1 /. fm);
        ("gc.major_collections", Run.major_collections g0 g1);
        ("goodput_share", float_of_int (n - failed) /. fn);
        ("bytes_per_instance", float_of_int ((live1 - live0) * 8) /. fn);
      ]
    end
  in
  ignore (Sys.opaque_identity (eng, sched));
  {
    Run.empty with
    checked = n;
    failed;
    instances = n;
    events = m;
    pieces;
    refs;
    (* every occurred call enables the binding's parked commit *)
    calls = select (fun i -> not sched.commit.(i));
    layers;
  }

let fleet_bindings ~smoke = if smoke then 5_000 else 100_000

(* --- param-burst ------------------------------------------------------- *)

let s0 = 1.0 (* virtual service per engine input *)
let s1 = 0.04 (* virtual service per decision evaluation *)
let watermark = 10

let flow_config =
  {
    Flow.default_config with
    shed_watermark = watermark;
    retry_base = 1.0;
    retry_backoff = 2.0;
    retry_max = 64.0;
    probe_every = 256;
  }

(* Prepare/commit pairs per virtual time unit at saturation: two fixed
   quanta plus the prepare's sweep over a backlog pinned at the
   watermark. *)
let capacity =
  1.0 /. ((2.0 *. s0) +. (s1 *. (2.0 +. (2.0 *. float_of_int watermark))))
let load = 0.5
let sources = 64

(* Job arrival times: [sources] synchronized sources, each firing once
   per batch period, together offering [load] x capacity. *)
let burst_arrivals ~jobs ~seed =
  let rng = Wf_sim.Rng.create (Int64.of_int seed) in
  let mean = float_of_int sources /. (4.0 *. load *. capacity) in
  let now = Array.make sources 0.0 in
  let arrivals =
    Array.init jobs (fun j ->
        let s = j mod sources in
        now.(s) <- now.(s) +. Flow.arrival_delay Flow.Burst ~rng ~now:now.(s) ~mean;
        now.(s))
  in
  Array.sort Float.compare arrivals;
  arrivals

(* Binary min-heap of (virtual time, insertion order) -> event code. *)
module Heap = struct
  type t = {
    mutable time : float array;
    mutable seq : int array;
    mutable ev : int array;
    mutable n : int;
    mutable next : int;
  }

  let create () = { time = [||]; seq = [||]; ev = [||]; n = 0; next = 0 }

  let before h i j =
    h.time.(i) < h.time.(j) || (h.time.(i) = h.time.(j) && h.seq.(i) < h.seq.(j))

  let swap h i j =
    let t = h.time.(i) and s = h.seq.(i) and e = h.ev.(i) in
    h.time.(i) <- h.time.(j);
    h.seq.(i) <- h.seq.(j);
    h.ev.(i) <- h.ev.(j);
    h.time.(j) <- t;
    h.seq.(j) <- s;
    h.ev.(j) <- e

  let push h time ev =
    if h.n = Array.length h.time then begin
      let cap = max 1024 (2 * h.n) in
      let grow a z = Array.append a (Array.make (cap - h.n) z) in
      h.time <- grow h.time 0.0;
      h.seq <- grow h.seq 0;
      h.ev <- grow h.ev 0
    end;
    h.time.(h.n) <- time;
    h.seq.(h.n) <- h.next;
    h.ev.(h.n) <- ev;
    h.next <- h.next + 1;
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && before h !i ((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  (* Pops into [time_out.(0)]; returns the event code or -1 when empty. *)
  let pop h time_out =
    if h.n = 0 then -1
    else begin
      time_out.(0) <- h.time.(0);
      let ev = h.ev.(0) in
      h.n <- h.n - 1;
      swap h 0 h.n;
      let i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < h.n && before h l !m then m := l;
        if r < h.n && before h r !m then m := r;
        if !m = !i then sifting := false
        else begin
          swap h !m !i;
          i := !m
        end
      done;
      ev
    end
end

let param_create ~seed () =
  Param_sched.create ~flow:flow_config ~store_seed:(Int64.of_int seed) [ template ]

(* Engine calls per timed piece of a param round. *)
let param_piece = 256

(* Event codes: 2j = commit attempt (arrival or retry) of job j,
   2j+1 = prepare of job j, due when the server frees up. *)
let param_round ~traced ~seed arrivals =
  let jobs = Array.length arrivals in
  let live0 = if traced then live_words () else 0 in
  let g0 = Gc.quick_stat () in
  let eng = param_create ~seed () in
  let heap = Heap.create () in
  Array.iteri (fun j t -> Heap.push heap t (2 * j)) arrivals;
  let syms_c = Array.init jobs (sym "c") in
  let lits_p = Array.init jobs (fun j -> Literal.pos (sym "p" j)) in
  let free_at = ref 0.0 and done_at = Array.make jobs nan in
  let occ_us = Array.make jobs 0.0 and k = ref 0 in
  let att_us = ref [] and busy_us = ref [] in
  let calls = ref 0 and parked_peak = ref 0 and refused = ref 0 in
  let charge now w0 =
    let dw = Param_sched.work eng - w0 in
    free_at := Float.max now !free_at +. s0 +. (s1 *. float_of_int dw)
  in
  let now = [| 0.0 |] in
  let pieces = Run.pieces param_piece in
  let rec loop () =
    let ev = Heap.pop heap now in
    if ev >= 0 then begin
      let j = ev / 2 and now = now.(0) in
      incr calls;
      let w0 = Param_sched.work eng in
      if ev land 1 = 0 then begin
        let t = Run.now_ns () in
        let out = Param_sched.attempt eng syms_c.(j) in
        if traced then begin
          let us = Run.us_since t in
          att_us := us :: !att_us;
          match out with Busy _ -> busy_us := us :: !busy_us | _ -> ()
        end;
        match out with
        | Busy { retry_after } -> Heap.push heap (now +. retry_after) ev
        | Parked ->
            charge now w0;
            parked_peak := max !parked_peak (Param_sched.parked_count eng);
            Heap.push heap !free_at (ev + 1)
        | Accepted | Already ->
            charge now w0;
            done_at.(j) <- !free_at
        | Rejected -> incr refused
      end
      else begin
        let t = Run.now_ns () in
        Param_sched.occurred eng lits_p.(j);
        occ_us.(!k) <- Run.us_since t;
        incr k;
        charge now w0;
        done_at.(j) <- !free_at
      end;
      Run.tick pieces;
      loop ()
    end
  in
  loop ();
  let pieces, refs = Run.finish pieces in
  let g1 = Gc.quick_stat () in
  let occ_us = Array.sub occ_us 0 !k in
  let failed =
    if Param_sched.parked_count eng <> 0 || !refused > 0 then jobs
    else audit ~n:jobs (Param_sched.trace eng)
  in
  let layers =
    if not traced then []
    else begin
      let live1 = live_words () in
      let count c = float_of_int (Wf_obs.Metrics.count (Param_sched.stats eng) c) in
      let fj = float_of_int jobs and fc = float_of_int !calls in
      let last = arrivals.(jobs - 1) in
      let in_window =
        Array.fold_left (fun c t -> if t <= last then c + 1 else c) 0 done_at
      in
      let lat = Array.mapi (fun j t -> t -. arrivals.(j)) done_at in
      [
        ("param_sched.attempt_us_p50", pct (Array.of_list !att_us) 0.5);
        ("param_sched.attempt_us_p99", pct (Array.of_list !att_us) 0.99);
        ("param_sched.busy_us_p50", pct (Array.of_list !busy_us) 0.5);
        ("param_sched.work_per_input", float_of_int (Param_sched.work eng) /. fc);
        ("param_sched.parked_peak", float_of_int !parked_peak);
        ("call_us_p99", pct occ_us 0.99);
        ("flow.shed_per_job", count "flow_shed" /. fj);
        ("flow.probe_admits", count "flow_probe_admits");
        ("gc.minor_words_per_input", Run.alloc_words g0 g1 /. fc);
        ("gc.major_collections", Run.major_collections g0 g1);
        ("makespan_p50", Quantile.median lat);
        ("goodput_share", float_of_int in_window /. fj);
        ("bytes_per_instance", float_of_int ((live1 - live0) * 8) /. fj);
      ]
    end
  in
  ignore (Sys.opaque_identity (eng, syms_c, lits_p));
  (* every occurred call enables the job's parked commit *)
  {
    Run.empty with
    checked = jobs;
    failed;
    instances = jobs;
    events = !calls;
    pieces;
    refs;
    calls = occ_us;
    layers;
  }

let param_jobs ~smoke = if smoke then 500 else 10_000

(* --- entry points ------------------------------------------------------ *)

let fleet ~traced ~smoke ~seconds ~seed =
  let n = fleet_bindings ~smoke in
  let sched = fleet_schedule ~n ~seed in
  Run.outcome ~traced
    ~check:"every binding drained exactly once, prepare before commit"
    (Run.rounds ~smoke ~seconds ~setup:(fleet_create n) (fun _ ->
         fleet_round ~traced ~n sched))

let param ~traced ~smoke ~seconds ~seed =
  let arrivals = burst_arrivals ~jobs:(param_jobs ~smoke) ~seed in
  Run.outcome ~traced
    ~check:"every job completed exactly once, prepare before commit"
    (Run.rounds ~smoke ~seconds ~setup:(param_create ~seed) (fun _ ->
         param_round ~traced ~seed arrivals))
