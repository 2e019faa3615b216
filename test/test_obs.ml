(* The observability layer: typed metrics registry (counters, gauges,
   log-scale histograms) and the structured trace with its JSONL schema.
   The exact nearest-rank summary of [Helpers.summarize] serves as the
   oracle for the histogram quantile error bound. *)

open Wf_scheduler
open Helpers
module Metrics = Wf_obs.Metrics
module Trace = Wf_obs.Trace
module Json = Wf_obs.Json

let observe m name x = Metrics.record (Metrics.histogram m name) x

(* --- the nearest-rank oracle ------------------------------------------- *)

let test_percentile_nearest_rank () =
  (* Nearest-rank: percentile p of n sorted samples is the sample of
     rank ceil(p*n).  For 1..50 that makes p99 the 50th sample (50.0)
     and p95 the 48th (48.0).  The old truncating definition read
     index 48 / 46 — values 49.0 / 47.0 — so these expectations fail
     against it. *)
  let sum = summarize (List.init 50 (fun i -> float_of_int (50 - i))) in
  check (Alcotest.float 0.0) "p99 of 1..50" 50.0 sum.p99;
  check (Alcotest.float 0.0) "p95 of 1..50" 48.0 sum.p95;
  check (Alcotest.float 0.0) "p50 of 1..50" 25.0 sum.p50;
  (* 1..100: ranks land exactly on ceil(p*n) with no rounding slack. *)
  let sum = summarize (List.init 100 (fun i -> float_of_int (i + 1))) in
  check (Alcotest.float 0.0) "p99 of 1..100" 99.0 sum.p99;
  check (Alcotest.float 0.0) "p95 of 1..100" 95.0 sum.p95;
  check (Alcotest.float 0.0) "p50 of 1..100" 50.0 sum.p50;
  let sum = summarize [ 4.0; 1.0; 3.0; 2.0 ] in
  check (Alcotest.float 0.0) "p50 of 4 samples" 2.0 sum.p50;
  check (Alcotest.float 0.0) "p99 of 4 samples" 4.0 sum.p99;
  let sum = summarize [ 7.0 ] in
  check (Alcotest.float 0.0) "p50 of singleton" 7.0 sum.p50;
  check (Alcotest.float 0.0) "p99 of singleton" 7.0 sum.p99

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.add m "a" 2;
  check Alcotest.int "counter" 3 (Metrics.count m "a");
  check Alcotest.int "missing counter" 0 (Metrics.count m "b");
  Metrics.gauge_max m "level" 5.0;
  Metrics.gauge_max m "level" 2.0;
  check (Alcotest.float 0.0) "gauge keeps the maximum" 5.0
    (Option.get (Metrics.For_testing.gauge m "level"));
  checkb "missing gauge" (Metrics.For_testing.gauge m "nope" = None);
  List.iter (observe m "lat") [ 1.0; 2.0; 3.0; 4.0 ];
  observe m "lat" Float.nan;
  let s = Metrics.For_testing.summarize m "lat" in
  check Alcotest.int "n exact, nan dropped" 4 s.Metrics.n;
  check (Alcotest.float 0.001) "mean exact" 2.5 s.Metrics.mean;
  check (Alcotest.float 0.0) "min exact" 1.0 s.Metrics.min;
  check (Alcotest.float 0.0) "max exact" 4.0 s.Metrics.max;
  check (Alcotest.float 0.0) "p<=0 is min" 1.0 (Metrics.For_testing.quantile m "lat" 0.0);
  check (Alcotest.float 0.0) "p>=1 is max" 4.0 (Metrics.For_testing.quantile m "lat" 1.0);
  checkb "unknown histogram is nan" (Float.is_nan (Metrics.For_testing.quantile m "x" 0.5));
  (* out-of-range samples land in the overflow buckets but keep the
     exact moments *)
  let o = Metrics.create () in
  List.iter (observe o "wild") [ 1e12; 1e-12; 3.0; -5.0 ];
  let s = Metrics.For_testing.summarize o "wild" in
  check Alcotest.int "overflow counted" 4 s.Metrics.n;
  check (Alcotest.float 0.0) "overflow min exact" (-5.0) s.Metrics.min;
  check (Alcotest.float 0.0) "overflow max exact" 1e12 s.Metrics.max

let test_histogram_quantile_bound () =
  (* The documented bound: inside the tracked range the histogram's
     nearest-rank quantile is within sqrt(1.05)-1 < 2.5% (we assert the
     looser 5%) of the exact nearest-rank sample from the oracle. *)
  let rng = Wf_sim.Rng.create 7L in
  List.iter
    (fun n ->
      let reg = Metrics.create () and samples = ref [] in
      for _ = 1 to n do
        let x = Wf_sim.Rng.exponential rng ~mean:3.0 +. 0.001 in
        observe reg "lat" x;
        samples := x :: !samples
      done;
      let exact = summarize !samples in
      let approx = Metrics.For_testing.summarize reg "lat" in
      check Alcotest.int "n agrees" exact.n approx.Metrics.n;
      let within name a e =
        checkb
          (Printf.sprintf "%s within 5%% at n=%d (%g vs %g)" name n a e)
          (Float.abs (a -. e) /. e <= 0.05)
      in
      within "p50" approx.Metrics.p50 exact.p50;
      within "p95" approx.Metrics.p95 exact.p95;
      within "p99" approx.Metrics.p99 exact.p99;
      check (Alcotest.float 1e-9) "min exact" exact.min approx.Metrics.min;
      check (Alcotest.float 1e-9) "max exact" exact.max approx.Metrics.max)
    [ 10; 100; 1000 ]

let test_metrics_merge_associative () =
  let mk values =
    let m = Metrics.create () in
    List.iteri
      (fun i x ->
        Metrics.incr m "c";
        Metrics.gauge_max m "g" x;
        observe m (if i mod 2 = 0 then "h0" else "h1") x)
      values;
    m
  in
  let a = mk [ 1.0; 5.0; 2.0 ]
  and b = mk [ 10.0; 0.5 ]
  and c = mk [ 3.0; 0.25; 7.5; 4.0 ] in
  let l = Metrics.merge (Metrics.merge a b) c in
  let r = Metrics.merge a (Metrics.merge b c) in
  check Alcotest.int "counter total" 9 (Metrics.count l "c");
  check Alcotest.int "counter assoc" (Metrics.count l "c")
    (Metrics.count r "c");
  (* each registry keeps its maximum (a: 5.0, b: 10.0, c: 7.5); merge
     keeps the maximum of the levels *)
  check (Alcotest.float 0.0) "gauge is max" 10.0
    (Option.get (Metrics.For_testing.gauge l "g"));
  check (Alcotest.float 0.0) "gauge assoc" (Option.get (Metrics.For_testing.gauge l "g"))
    (Option.get (Metrics.For_testing.gauge r "g"));
  List.iter
    (fun name ->
      let sl = Metrics.For_testing.summarize l name and sr = Metrics.For_testing.summarize r name in
      check Alcotest.int (name ^ " n assoc") sl.Metrics.n sr.Metrics.n;
      check (Alcotest.float 1e-9) (name ^ " mean assoc") sl.Metrics.mean
        sr.Metrics.mean;
      check (Alcotest.float 0.0) (name ^ " min assoc") sl.Metrics.min
        sr.Metrics.min;
      check (Alcotest.float 0.0) (name ^ " max assoc") sl.Metrics.max
        sr.Metrics.max;
      check (Alcotest.float 0.0) (name ^ " p99 assoc") sl.Metrics.p99
        sr.Metrics.p99)
    (Metrics.For_testing.histogram_names l);
  (* merging with an empty registry is the identity on counts *)
  let e = Metrics.merge l (Metrics.create ()) in
  check Alcotest.int "empty merge id" (Metrics.count l "c")
    (Metrics.count e "c")

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.add m "sent" 42;
  Metrics.gauge_max m "makespan" 17.5;
  List.iter (observe m "lat") [ 1.0; 2.0; 4.0 ];
  let j =
    match Json.parse (Metrics.to_json m) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("metrics JSON does not parse: " ^ e)
  in
  let counter =
    Json.member "counters" j |> Option.get |> Json.member "sent" |> Option.get
  in
  check Alcotest.int "counter exported" 42 (Option.get (Json.to_int counter));
  let gauge =
    Json.member "gauges" j |> Option.get
    |> Json.member "makespan"
    |> Option.get
  in
  check (Alcotest.float 0.0) "gauge exported" 17.5
    (Option.get (Json.to_float gauge));
  let hist =
    Json.member "histograms" j |> Option.get |> Json.member "lat" |> Option.get
  in
  check Alcotest.int "histogram n exported" 3
    (Option.get (Json.to_int (Option.get (Json.member "n" hist))))

let test_metrics_handles () =
  (* Handles resolve without registering: only what is bumped or
     recorded shows up, and it shows up exactly as the string API
     would have put it there. *)
  let m = Metrics.create () in
  let counter name = Metrics.counter m (Metrics.key name) in
  let sent = counter "sent" and idle = counter "idle" in
  let zero = counter "zero" in
  let lat = Metrics.histogram m "lat" and quiet = Metrics.histogram m "quiet" in
  check Alcotest.string "resolving registers nothing"
    {|{"counters":{},"gauges":{},"histograms":{}}|} (Metrics.to_json m);
  Metrics.bump sent;
  Metrics.bump_by sent 2;
  Metrics.bump_by zero 0;
  Metrics.record lat Float.nan;
  checkb "a NaN sample registers nothing" (Metrics.For_testing.histogram_names m = []);
  List.iter (Metrics.record lat) [ 1.0; 2.0; 4.0 ];
  check Alcotest.int "bump visible to count" 3 (Metrics.count m "sent");
  Metrics.incr m "sent";
  Metrics.bump sent;
  check Alcotest.int "handle and name share the cell" 5 (Metrics.count m "sent");
  checkb "never-bumped handle stays absent"
    (List.map fst (Metrics.For_testing.counters m) = [ "sent"; "zero" ]);
  ignore (idle, quiet);
  checkb "unrecorded histogram stays absent" (Metrics.For_testing.histogram_names m = [ "lat" ]);
  (* A name registered through the string API after the handle was
     resolved: the first bump joins the existing cell. *)
  let late = counter "late" in
  Metrics.add m "late" 10;
  Metrics.bump late;
  check Alcotest.int "late handle joins the registered cell" 11
    (Metrics.count m "late");
  (* Same updates through the string API give byte-identical JSON. *)
  let r = Metrics.create () in
  Metrics.add r "sent" 5;
  Metrics.add r "zero" 0;
  Metrics.add r "late" 11;
  List.iter (observe r "lat") [ 1.0; 2.0; 4.0 ];
  check Alcotest.string "same JSON as the string API" (Metrics.to_json r)
    (Metrics.to_json m)

(* Lazy bucketing is invisible: a histogram read after every record
   (bucketed eagerly), one read now and then, and one never read until
   the end agree on every figure, bit for bit, past the sample buffer's
   bound; so do merges of unread and of eagerly read histograms. *)
let test_histogram_lazy_buckets () =
  let samples =
    List.init 1500 (fun i -> Float.of_int ((i * 7919) mod 1013) *. 0.37 +. 1e-3)
  in
  let fill ~read_every samples =
    let m = Metrics.create () in
    let h = Metrics.histogram m "lat" in
    List.iteri
      (fun i v ->
        Metrics.record h v;
        if read_every > 0 && i mod read_every = 0 then
          ignore (Metrics.For_testing.quantile m "lat" 0.5))
      samples;
    m
  in
  let figures m =
    ( Metrics.to_json m,
      List.map (Metrics.For_testing.quantile m "lat") [ 0.01; 0.3; 0.5; 0.9; 0.999 ] )
  in
  let eager = fill ~read_every:1 samples in
  List.iter
    (fun (what, m) ->
      checkb (what ^ " = eager") (figures m = figures eager))
    [ ("never read", fill ~read_every:0 samples);
      ("read every 7th", fill ~read_every:7 samples);
      ("read every 300th", fill ~read_every:300 samples) ];
  let a, b = List.partition (fun v -> v < 200.0) samples in
  let merged ~read_every =
    Metrics.merge (fill ~read_every a) (fill ~read_every b)
  in
  checkb "merge of unread = merge of eager"
    (figures (merged ~read_every:0) = figures (merged ~read_every:1));
  checkb "merge of unread = one histogram of every sample"
    (Metrics.For_testing.summarize (merged ~read_every:0) "lat"
    = Metrics.For_testing.summarize (fill ~read_every:0 (a @ b)) "lat")

let test_registries_separate () =
  (* Counter keys are process-wide, cells are not: two registries that
     resolve the same key count apart. *)
  let k = Metrics.key "shared_counter" in
  let m1 = Metrics.create () and m2 = Metrics.create () in
  let c1 = Metrics.counter m1 k and c2 = Metrics.counter m2 k in
  Metrics.bump_by c1 5;
  check Alcotest.int "bumped registry counts" 5 (Metrics.count m1 "shared_counter");
  check Alcotest.int "other registry untouched" 0 (Metrics.count m2 "shared_counter");
  checkb "other registry holds nothing" (Metrics.For_testing.counters m2 = []);
  Metrics.incr m2 "shared_counter";
  Metrics.bump c2;
  check Alcotest.int "second registry counts its own" 2
    (Metrics.count m2 "shared_counter");
  check Alcotest.int "first registry unchanged" 5 (Metrics.count m1 "shared_counter");
  (* A key made after a registry exists still resolves on it. *)
  let late = Metrics.key "made_after_the_registry" in
  Metrics.bump (Metrics.counter m1 late);
  check Alcotest.int "late key counts" 1 (Metrics.count m1 "made_after_the_registry")

let test_netsim_delivery_metrics () =
  (* Netsim's per-delivery metrics go through handles resolved at
     create: each site's receive counter lands on its own name, sites
     that received nothing stay absent, and a delivery to a site
     without a handler counts as dropped. *)
  let net =
    Wf_sim.Netsim.create ~seed:5L ~num_sites:4
      ~latency:{ Wf_sim.Netsim.base = 1.0; jitter = 0.5 }
      ()
  in
  List.iter (fun site -> Wf_sim.Netsim.on_receive net site (fun _ _ -> ())) [ 0; 1; 2 ];
  List.iter
    (fun (src, dst) -> Wf_sim.Netsim.send net ~src ~dst ())
    [ (0, 1); (2, 1); (1, 2); (0, 3) ];
  Wf_sim.Netsim.run net;
  let m = Wf_sim.Netsim.stats net in
  check Alcotest.int "site 1 received two" 2 (Metrics.count m "site_recv_1");
  check Alcotest.int "site 2 received one" 1 (Metrics.count m "site_recv_2");
  check Alcotest.int "site 3 received one" 1 (Metrics.count m "site_recv_3");
  checkb "site 0 received nothing: absent"
    (not (List.mem_assoc "site_recv_0" (Metrics.For_testing.counters m)));
  check Alcotest.int "delivered" 4 (Metrics.count m "messages_delivered");
  check Alcotest.int "no handler at site 3" 1 (Metrics.count m "messages_dropped");
  check Alcotest.int "sent" 4 (Metrics.count m "messages_sent");
  check Alcotest.int "latency samples" 4
    (Metrics.For_testing.summarize m "message_latency").Metrics.n

(* --- Trace: schema round-trip -------------------------------------------- *)

let all_kinds =
  [
    Trace.make ~time:0.0 ~site:0 ~mid:7
      (Trace.Send { src = 0; dst = 1; control = true });
    Trace.make ~time:1.5 ~site:1 ~mid:7 (Trace.Deliver { src = 0; dst = 1 });
    Trace.make ~time:2.0 ~site:1
      (Trace.Drop { src = 0; dst = 1; reason = Trace.Link });
    Trace.make ~time:2.0 ~site:1
      (Trace.Drop { src = 0; dst = 1; reason = Trace.Partition });
    Trace.make ~time:2.25 ~site:1
      (Trace.Drop { src = 0; dst = 1; reason = Trace.Crashed });
    Trace.make ~time:3.0 ~site:2 Trace.Crash;
    Trace.make ~time:4.0 ~site:2 Trace.Restart;
    Trace.make ~time:5.0 ~site:0 ~epoch:1 ~mid:3
      (Trace.Retransmit { dst = 1; tries = 2 });
    Trace.make ~time:6.0 ~site:0 ~mid:3 (Trace.Give_up { dst = 1 });
    Trace.make ~time:7.0 ~site:0 ~epoch:1 ~mid:3 (Trace.Ack { dst = 1 });
    Trace.make ~time:8.0 ~site:2 ~epoch:3 Trace.Epoch_bump;
    Trace.make ~time:9.25 ~site:1 ~actor:"b_t1(3)"
      (Trace.Assim { outcome = Trace.Enabled; guard = 42 });
    Trace.make ~time:9.25 ~site:1 ~actor:"e"
      (Trace.Assim { outcome = Trace.Parked; guard = 0 });
    Trace.make ~time:9.5 ~site:2 ~actor:"f"
      (Trace.Assim { outcome = Trace.Reduced; guard = -1 });
    Trace.make ~time:9.75 ~site:0 ~actor:"g"
      (Trace.Assim { outcome = Trace.Rejected; guard = 3 });
    Trace.make ~time:10.0 ~site:0 ~actor:"h"
      (Trace.Assim { outcome = Trace.Forced; guard = 4 });
  ]

let test_trace_roundtrip () =
  List.iter
    (fun r ->
      match Trace.parse_line (Trace.For_testing.line_of r) with
      | Ok r' ->
          checkb
            ("round trip of " ^ Trace.kind_name r ^ ": " ^ Trace.For_testing.line_of r)
            (r = r')
      | Error e ->
          Alcotest.fail
            (Printf.sprintf "%s does not parse back: %s" (Trace.For_testing.line_of r) e))
    all_kinds;
  checkb "unknown kind rejected"
    (Result.is_error (Trace.parse_line {|{"t":0,"kind":"nope","site":0}|}));
  checkb "missing field rejected"
    (Result.is_error (Trace.parse_line {|{"t":0,"kind":"send","site":0}|}));
  checkb "garbage rejected" (Result.is_error (Trace.parse_line "not json"));
  checkb "unknown drop reason rejected"
    (Result.is_error
       (Trace.parse_line
          {|{"t":0,"kind":"drop","site":0,"src":0,"dst":1,"reason":"lost"}|}));
  checkb "unknown assim outcome rejected"
    (Result.is_error
       (Trace.parse_line
          {|{"t":0,"kind":"assim","site":0,"actor":"a","outcome":"done","guard":1}|}));
  checkb "unknown store fault rejected"
    (Result.is_error
       (Trace.parse_line {|{"t":0,"kind":"store_fault","site":0,"fault":"melted"}|}));
  (* A context field may be absent, but not mistyped, and no key may
     repeat: each is rejected with a message naming the field. *)
  let rejected_naming field line =
    let quoted = Printf.sprintf "%S" field in
    let n = String.length quoted in
    let rec names e i =
      i + n <= String.length e && (String.sub e i n = quoted || names e (i + 1))
    in
    match Trace.parse_line line with
    | Ok _ -> Alcotest.failf "accepted: %s" line
    | Error e -> checkb (Printf.sprintf "%S names %s" e quoted) (names e 0)
  in
  rejected_naming "epoch"
    {|{"t":0,"kind":"send","site":0,"epoch":"x","src":0,"dst":1,"control":false}|};
  rejected_naming "mid"
    {|{"t":0,"kind":"send","site":0,"mid":1.5,"src":0,"dst":1,"control":false}|};
  rejected_naming "actor"
    {|{"t":0,"kind":"crash","site":0,"actor":7}|};
  rejected_naming "dst"
    {|{"t":0,"kind":"send","site":0,"src":0,"dst":1,"dst":2,"control":false}|};
  rejected_naming "epoch"
    {|{"t":0,"kind":"epoch_bump","site":0,"epoch":1,"epoch":2}|};
  checkb "absent context fields still accepted"
    (Result.is_ok
       (Trace.parse_line
          {|{"t":0,"kind":"send","site":0,"src":0,"dst":1,"control":false}|}))

(* --- JSON rendering ---------------------------------------------------- *)

(* Trees whose numbers [Json.float_str] prints exactly: finite, rounded
   to 12 significant digits. *)
let gen_json : Json.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let round12 f =
    if Float.is_finite f then float_of_string (Printf.sprintf "%.12g" f) else 0.0
  in
  let num = map round12 (oneof [ map float_of_int int; float ]) in
  let leaf =
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) num;
        map (fun s -> Json.Str s) string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           let kids = list_size (int_bound 4) (self (n / 4)) in
           oneof
             [
               leaf;
               map (fun xs -> Json.List xs) kids;
               map
                 (fun kvs -> Json.Obj kvs)
                 (list_size (int_bound 4) (pair string (self (n / 4))));
             ])

let test_json_non_finite () =
  check Alcotest.string "nan" "null" (Json.to_string (Json.Num nan));
  check Alcotest.string "inf in a list" "[null, 1.5]"
    (Json.to_string (Json.List [ Json.Num infinity; Json.Num 1.5 ]))

(* The kinds [all_kinds] predates, with their context fields. *)
let later_kinds =
  [
    Trace.make ~time:11.0 ~site:1 ~actor:"b_t1"
      (Trace.Store_fault { fault = "torn" });
    Trace.make ~time:11.5 ~site:1 ~actor:"b_t1"
      (Trace.Store_salvage { kept = 3; dropped = 17; fallback = true });
    Trace.make ~time:12.0 ~site:0
      (Trace.Shed { depth = 4; retry_after = 0.375 });
    Trace.make ~time:12.5 ~site:2 ~epoch:1
      (Trace.Credit { peer = 0; grant = 2; reset = true });
    Trace.make ~time:13.0 ~site:0 ~epoch:2 ~mid:5
      (Trace.Dead_letter { dst = 1; tries = 30 });
  ]

(* The events [write_chrome] writes for [records]. *)
let chrome_events records =
  let path = Filename.temp_file "wf_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.write_chrome oc records;
      close_out oc;
      match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Error e -> Alcotest.fail ("chrome trace does not parse: " ^ e)
      | Ok j -> (
          match Json.member "traceEvents" j with
          | Some (Json.List evs) -> evs
          | _ -> Alcotest.fail "traceEvents missing"))

let test_trace_files () =
  let path = Filename.temp_file "wf_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.write_jsonl oc all_kinds;
      close_out oc;
      match Trace.validate_file path with
      | Ok n -> check Alcotest.int "all records validate" 16 n
      | Error e -> Alcotest.fail e);
  (* time going backwards must be flagged *)
  let path = Filename.temp_file "wf_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.write_jsonl oc
        [
          Trace.make ~time:2.0 ~site:0 Trace.Crash;
          Trace.make ~time:1.0 ~site:0 Trace.Restart;
        ];
      close_out oc;
      checkb "decreasing time rejected"
        (Result.is_error (Trace.validate_file path)));
  (* the Chrome export is well-formed JSON with one event per record *)
  check Alcotest.int "one event per record" 16
    (List.length (chrome_events all_kinds));
  (* the two writers agree: a Chrome event's args are its JSONL line's
     members past t, kind and site, for every kind (the later ones
     round-trip here too) *)
  List.iter
    (fun r ->
      checkb ("round trip of " ^ Trace.For_testing.line_of r)
        (Trace.parse_line (Trace.For_testing.line_of r) = Ok r))
    later_kinds;
  let records = all_kinds @ later_kinds in
  List.iter2
    (fun r ev ->
      let line = Trace.For_testing.line_of r in
      match (Json.parse line, Json.member "args" ev) with
      | Ok (Json.Obj members), Some (Json.Obj args) ->
          checkb ("chrome args of " ^ line)
            (List.filter
               (fun (k, _) -> not (List.mem k [ "t"; "kind"; "site" ]))
               members
            = args)
      | _ -> Alcotest.fail ("no args to compare for " ^ line))
    records (chrome_events records)

(* --- end to end: a traced faulty run agrees with its metrics ------------- *)

let spec_dir =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) "../specs";
      "../specs";
      "specs";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> "../specs"

let count_kind records name =
  List.length (List.filter (fun r -> Trace.kind_name r = name) records)

let count_outcome records o =
  List.length
    (List.filter
       (fun (r : Trace.record) ->
         match r.Trace.kind with
         | Trace.Assim a -> a.outcome = o
         | _ -> false)
       records)

let test_traced_run_agrees () =
  (* A faulty, crashy run with the collector attached: every trace
     count must agree with the corresponding metrics counter, and the
     JSONL export must validate. *)
  let { Wf_lang.Elaborate.def; templates } =
    Wf_lang.Elaborate.load_file (Filename.concat spec_dir "travel.wf")
  in
  check Alcotest.int "travel.wf is ground" 0 (List.length templates);
  let faults =
    {
      Wf_sim.Netsim.no_faults with
      drop_rate = 0.25;
      duplicate_rate = 0.1;
      crash_on_deliver = 0.2;
      restart_delay = 2.0;
      max_crashes = 50;
    }
  in
  let sink, records = Trace.collector () in
  let r =
    Event_sched.run
      ~config:
        {
          Event_sched.default_config with
          seed = 5L;
          faults;
          tracer = Some sink;
        }
      def
  in
  checkb "run satisfied under faults" r.Event_sched.satisfied;
  let records = records () in
  let stats = r.Event_sched.stats in
  let count = Metrics.count stats in
  let agree name counter =
    check Alcotest.int
      (Printf.sprintf "#%s = %s" name counter)
      (count counter) (count_kind records name)
  in
  agree "send" "messages_sent";
  agree "deliver" "messages_delivered";
  agree "crash" "net_crashes";
  agree "restart" "net_restarts";
  agree "retransmit" "chan_retransmits";
  agree "give_up" "chan_gave_up";
  check Alcotest.int "#epoch_bump = net_restarts" (count "net_restarts")
    (count_kind records "epoch_bump");
  check Alcotest.int "#ack = ack_latency.n"
    (Metrics.For_testing.summarize stats "ack_latency").Metrics.n
    (count_kind records "ack");
  let drops reason =
    List.length
      (List.filter
         (fun (r : Trace.record) ->
           match r.Trace.kind with
           | Trace.Drop d -> d.reason = reason
           | _ -> false)
         records)
  in
  check Alcotest.int "#drop/link = net_drops" (count "net_drops")
    (drops Trace.Link);
  check Alcotest.int "#drop/partition = net_partition_drops"
    (count "net_partition_drops")
    (drops Trace.Partition);
  check Alcotest.int "#drop/crash = net_crash_drops" (count "net_crash_drops")
    (drops Trace.Crashed);
  check Alcotest.int "parked + reduced = parked_evaluations"
    (count "parked_evaluations")
    (count_outcome records Trace.Parked + count_outcome records Trace.Reduced);
  check Alcotest.int "forced = forced_violations" (count "forced_violations")
    (count_outcome records Trace.Forced);
  (* the interesting paths actually ran under this seed *)
  checkb "sends traced" (count_kind records "send" > 0);
  checkb "link drops traced" (drops Trace.Link > 0);
  checkb "crashes traced" (count_kind records "crash" > 0);
  checkb "crash-window drops traced" (drops Trace.Crashed > 0);
  checkb "retransmits traced" (count_kind records "retransmit" > 0);
  checkb "assimilations traced" (count_outcome records Trace.Enabled > 0);
  (* and the whole thing survives the JSONL round trip *)
  let path = Filename.temp_file "wf_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.write_jsonl oc records;
      close_out oc;
      match Trace.validate_file path with
      | Ok n -> check Alcotest.int "export validates" (List.length records) n
      | Error e -> Alcotest.fail e)

let test_disabled_tracer_free () =
  (* With no sink attached nothing is recorded and the run is
     unchanged: same trace, same stats. *)
  let { Wf_lang.Elaborate.def; _ } =
    Wf_lang.Elaborate.load_file (Filename.concat spec_dir "travel.wf")
  in
  let run tracer =
    Event_sched.run
      ~config:{ Event_sched.default_config with seed = 11L; tracer }
      def
  in
  let sink, records = Trace.collector () in
  let traced = run (Some sink) and plain = run None in
  checkb "tracing does not perturb the run"
    (Event_sched.trace_literals traced = Event_sched.trace_literals plain);
  check Alcotest.int "stats agree"
    (Metrics.count traced.Event_sched.stats "messages_sent")
    (Metrics.count plain.Event_sched.stats "messages_sent");
  checkb "collector saw the traced run" (records () <> [])

let suite =
  [
    Alcotest.test_case "percentile is nearest-rank" `Quick
      test_percentile_nearest_rank;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "histogram quantile error bound" `Quick
      test_histogram_quantile_bound;
    Alcotest.test_case "metrics merge associative" `Quick
      test_metrics_merge_associative;
    Alcotest.test_case "metrics JSON export" `Quick test_metrics_json;
    Alcotest.test_case "metrics handles register lazily" `Quick
      test_metrics_handles;
    Alcotest.test_case "histogram buckets lazily, figures unchanged" `Quick
      test_histogram_lazy_buckets;
    Alcotest.test_case "registries sharing keys keep separate cells" `Quick
      test_registries_separate;
    Alcotest.test_case "netsim delivery metrics per site" `Quick
      test_netsim_delivery_metrics;
    Alcotest.test_case "trace JSONL round trip" `Quick test_trace_roundtrip;
    qprop "json to_string inverts parse" ~print:Json.to_string gen_json
      (fun j -> Json.parse (Json.to_string j) = Ok j);
    Alcotest.test_case "json non-finite numbers print null" `Quick
      test_json_non_finite;
    Alcotest.test_case "trace file validation" `Quick test_trace_files;
    Alcotest.test_case "traced faulty run agrees with metrics" `Quick
      test_traced_run_agrees;
    Alcotest.test_case "disabled tracer is inert" `Quick
      test_disabled_tracer_free;
  ]
