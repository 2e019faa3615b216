(* wfbench: the benchmark defined by BENCHMARK.json.

     wfbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
         Measure one workload in this process.  Prints a table, the full
         record as one JSON line, and as the last line a summary:
         correctness, instance counts, and each metric's value and unit.
     wfbench run [--workload W] [--seed N] [--seconds S] [--smoke] [--out F]
         The untraced end-to-end metrics of every workload (or one), each
         in its own child process, one at a time.  Exits 1 if any
         correctness check fails.
     wfbench trace [--workload W] [--seed N] [--seconds S] [--smoke] [--out F]
         The same with tracing on: the per-layer metrics.
     wfbench compare OLD.json NEW.json
         One row per workload and end-to-end metric, judged against the
         bounds in ./BENCHMARK.json; exits 1 on a regression or a higher
         failed share. *)

open Wfbench_lib

let usage () =
  prerr_endline
    "usage: wfbench --workload W --seed N --seconds S --trace 0|1 [--smoke]\n\
    \       wfbench (run|trace) [--workload W] [--seed N] [--seconds S] [--smoke]\n\
    \                           [--out F]\n\
    \       wfbench compare OLD.json NEW.json";
  exit 2

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("wfbench: " ^ msg); exit 2) fmt

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
  out : string option;
  files : string list;
}

let parse_opts args =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail "%s wants an integer, got %S" flag v
  in
  let rec go o = function
    | [] -> { o with files = List.rev o.files }
    | "--workload" :: w :: rest ->
        if not (List.mem w Workload.names) then
          fail "unknown workload %S (one of %s)" w (String.concat ", " Workload.names);
        go { o with workload = Some w } rest
    | "--seed" :: v :: rest -> go { o with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
        let s = int_arg "--seconds" v in
        if s < 1 then fail "--seconds must be at least 1";
        go { o with seconds = float_of_int s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with traced = v = "1" } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | f :: rest when String.length f > 0 && f.[0] <> '-' ->
        go { o with files = f :: o.files } rest
    | flag :: _ -> fail "unexpected argument %S" flag
  in
  go
    {
      workload = None;
      seed = 1;
      seconds = 20.0;
      traced = false;
      smoke = false;
      out = None;
      files = [];
    }
    args

(* --- one workload, in this process -------------------------------------- *)

let single o =
  match o.workload with
  | None -> usage ()
  | Some w ->
      let t =
        Workload.measure ~workload:w ~traced:o.traced ~smoke:o.smoke ~seconds:o.seconds
          ~seed:o.seed
      in
      Run.pp_table stdout t;
      print_endline (Run.detail_json t);
      print_endline (Run.summary_json t.outcome)

(* --- every workload, one child process each ------------------------------ *)

let read_lines ic =
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc
  in
  go []

(* The child's record is its second-to-last line. *)
let child o workload =
  let args =
    [
      Sys.executable_name; "--workload"; workload; "--seed"; string_of_int o.seed;
      "--seconds"; string_of_int (int_of_float o.seconds); "--trace";
      (if o.traced then "1" else "0");
    ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = read_lines ic in
  let status = Unix.close_process_in ic in
  match (status, lines) with
  | Unix.WEXITED 0, _ :: detail :: table ->
      List.iter print_endline (List.rev table);
      detail
  | _ -> fail "workload %s: child process failed" workload

let git_rev () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    let ic =
      Unix.open_process_args_in "git" [| "git"; "describe"; "--always"; "--dirty" |]
    in
    let rev = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    rev

let suite o =
  let ws = match o.workload with Some w -> [ w ] | None -> Workload.names in
  let details = List.map (child o) ws in
  let ok =
    List.for_all
      (fun d ->
        match Wf_obs.Json.parse d with
        | Ok j -> Wf_obs.Json.member "correct" j = Some (Wf_obs.Json.Bool true)
        | Error _ -> false)
      details
  in
  let artifact =
    Printf.sprintf
      "{\"suite\":\"wfbench\",\"kind\":%s,\"mode\":%s,\"seed\":%d,\"seconds\":%d,\
       \"git_rev\":%s,\"ocaml\":%s,\"workloads\":[\n%s\n]}\n"
      (Wf_obs.Json.quote (if o.traced then "trace" else "run"))
      (Wf_obs.Json.quote (if o.smoke then "smoke" else "full"))
      o.seed (int_of_float o.seconds)
      (Wf_obs.Json.quote (git_rev ()))
      (Wf_obs.Json.quote Sys.ocaml_version)
      (String.concat ",\n" details)
  in
  Option.iter
    (fun f -> Out_channel.with_open_text f (fun oc -> output_string oc artifact))
    o.out;
  Printf.printf "all correctness checks %s\n" (if ok then "passed" else "FAILED");
  if not ok then exit 1

(* --- compare ------------------------------------------------------------ *)

let load file =
  match Wf_obs.Json.parse (In_channel.with_open_text file In_channel.input_all) with
  | Ok j -> j
  | Error e -> fail "%s: %s" file e
  | exception Sys_error e -> fail "%s" e

let field k j =
  match Wf_obs.Json.member k j with Some v -> v | None -> fail "missing field %S" k

let num k j =
  match Wf_obs.Json.to_float (field k j) with
  | Some x -> x
  | None -> fail "%S is not a number" k

let str k j =
  match Wf_obs.Json.to_string_opt (field k j) with
  | Some s -> s
  | None -> fail "%S is not a string" k

let list k j =
  match field k j with Wf_obs.Json.List l -> l | _ -> fail "%S is not a list" k

let side metric j =
  let m = field metric (field "metrics" j) in
  {
    Verdict.value = num "value" m;
    q1 = num "q1" m;
    q3 = num "q3" m;
    samples =
      Array.of_list
        (List.map
           (fun v -> Option.value ~default:nan (Wf_obs.Json.to_float v))
           (list "samples" m));
  }

let compare o =
  let old_file, new_file = match o.files with [ a; b ] -> (a, b) | _ -> usage () in
  let spec = load "BENCHMARK.json" in
  let metrics =
    List.map
      (fun m ->
        let better = if str "better" m = "lower" then Run.Lower else Run.Higher in
        (str "name" m, better, num "bound" m))
      (list "end_to_end" spec)
  in
  let by_name file =
    List.map (fun w -> (str "workload" w, w)) (list "workloads" (load file))
  in
  let olds = by_name old_file and news = by_name new_file in
  Printf.printf "%-14s %-14s %14s %14s %8s %7s  %s\n" "workload" "metric" "old"
    "new" "change" "spread" "verdict";
  let bad = ref false in
  List.iter
    (fun (w, oj) ->
      match List.assoc_opt w news with
      | None -> Printf.printf "%-14s missing from %s\n" w new_file
      | Some nj ->
          List.iter
            (fun (name, better, bound) ->
              let a = side name oj and b = side name nj in
              let v = Verdict.judge ~better ~bound a b in
              if v = Verdict.Regressed then bad := true;
              Printf.printf "%-14s %-14s %14.6g %14.6g %+7.1f%% %6.1f%%  %s\n" w
                name a.value b.value
                (100.0 *. Verdict.gain ~better a b)
                (100.0 *. Float.max (Verdict.spread a) (Verdict.spread b))
                (Verdict.to_string v))
            metrics;
          let share j = num "failed" j /. Float.max 1.0 (num "attempted" j) in
          if share nj > share oj then begin
            bad := true;
            Printf.printf "%-14s failed share rose from %g to %g\n" w (share oj)
              (share nj)
          end)
    olds;
  if !bad then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> suite { (parse_opts args) with traced = false }
  | "trace" :: args -> suite { (parse_opts args) with traced = true }
  | "compare" :: args -> compare (parse_opts args)
  | args -> single (parse_opts args)
