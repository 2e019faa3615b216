(* wfmc — exhaustively model-check a workflow specification: enumerate
   the interleavings of the simulator's own runs over a controlled,
   fault-free network (and, with --crash-depth, every placement of crash
   steps) on the spec's universe and check each maximal run against the
   symbolic oracle.  Exit codes: 0 clean, 1 divergences found,
   2 usage/spec error, 3 exploration incomplete (--max-states hit). *)

open Wf_core
open Wf_check

let lit_string (l : Literal.t) =
  (if Literal.is_pos l then "" else "~") ^ Symbol.name (Literal.symbol l)

let show_report verbose (r : Mc.report) =
  Format.printf "%s [%s]: %d states, %d transitions, %d maximal runs@."
    r.Mc.r_spec r.Mc.r_mode r.Mc.r_states r.Mc.r_transitions r.Mc.r_traces;
  Format.printf
    "  dedup hits %d, sleep-set skips %d, max depth %d, crash depth %d%s@."
    r.Mc.r_dedup_hits r.Mc.r_sleep_skips r.Mc.r_max_depth r.Mc.r_crash_depth
    (if r.Mc.r_recoveries > 0 then
       Printf.sprintf " (%d actor recoveries)" r.Mc.r_recoveries
     else "");
  Format.printf "  %d distinct closed traces@."
    (List.length r.Mc.r_closed_traces);
  if verbose then
    List.iter
      (fun tr ->
        Format.printf "    %s@."
          (String.concat " " (List.map lit_string tr)))
      r.Mc.r_closed_traces;
  if not r.Mc.r_complete then
    Format.printf "  INCOMPLETE: --max-states bound hit@.";
  List.iter
    (fun (d : Mc.divergence) ->
      Format.printf "  DIVERGENCE [%s]: %s@." d.Mc.d_kind d.Mc.d_detail;
      Format.printf "    schedule: %s@."
        (String.concat " " (List.map Mc.Tkey.to_string d.Mc.d_schedule)))
    r.Mc.r_divergences;
  if r.Mc.r_divergences = [] && r.Mc.r_complete then
    Format.printf "  exhaustively verified: no divergences@."

let js_string s = "\"" ^ String.concat "\\\"" (String.split_on_char '"' s) ^ "\""

let report_json (r : Mc.report) =
  Printf.sprintf
    "{\"spec\":%s,\"mode\":%s,\"states\":%d,\"transitions\":%d,\"traces\":%d,\"dedup_hits\":%d,\"sleep_skips\":%d,\"max_depth\":%d,\"complete\":%b,\"crash_depth\":%d,\"recoveries\":%d,\"closed_traces\":%d,\"divergences\":%d}"
    (js_string r.Mc.r_spec) (js_string r.Mc.r_mode) r.Mc.r_states
    r.Mc.r_transitions r.Mc.r_traces r.Mc.r_dedup_hits r.Mc.r_sleep_skips
    r.Mc.r_max_depth r.Mc.r_complete r.Mc.r_crash_depth r.Mc.r_recoveries
    (List.length r.Mc.r_closed_traces)
    (List.length r.Mc.r_divergences)

let load path =
  let { Wf_lang.Elaborate.def; templates } = Wf_lang.Elaborate.load_file path in
  if templates <> [] then begin
    prerr_endline
      "wfmc: parametrized specs are not model-checkable (infinite alphabet); \
       use wfsim";
    exit 2
  end;
  def

let run path crash_depth torn_writes max_states naive no_gtable classes
    verbose json_file cex_file replay_file =
  Gtable.set_enabled (not no_gtable);
  let path =
    match path with
    | Some p -> p
    | None ->
        prerr_endline "wfmc: a SPEC.wf argument is required";
        exit 2
  in
  let def = load path in
  if classes then begin
    List.iter
      (fun cls ->
        Format.printf "{%s}@."
          (String.concat ", " (List.map Symbol.name cls)))
      (Mc.coupling_classes def);
    exit 0
  end;
  match replay_file with
  | Some rpath -> (
      match Mc.load_schedule rpath with
      | Error e ->
          Format.eprintf "wfmc: cannot load %s: %s@." rpath e;
          exit 2
      | Ok schedule -> (
          match Mc.replay def schedule with
          | Error e ->
              Format.eprintf "wfmc: replay of %s failed: %s@." rpath e;
              exit 2
          | Ok (divs, trace) ->
              Format.printf "replayed %d steps; closed trace: %s@."
                (List.length schedule)
                (String.concat " " (List.map lit_string trace));
              List.iter
                (fun (d : Mc.divergence) ->
                  Format.printf "  DIVERGENCE [%s]: %s@." d.Mc.d_kind
                    d.Mc.d_detail)
                divs;
              if divs = [] then Format.printf "  no divergence reproduced@.";
              exit (if divs = [] then 0 else 1)))
  | None ->
      let r =
        try
          Mc.check ~crash_depth ~torn_writes ~max_states ~dpor:(not naive)
            ~spec_name:(Filename.basename path) def
        with Invalid_argument msg ->
          prerr_endline ("wfmc: " ^ msg);
          exit 2
      in
      show_report verbose r;
      (match json_file with
      | None -> ()
      | Some jpath ->
          let oc = open_out jpath in
          output_string oc (report_json r);
          output_char oc '\n';
          close_out oc;
          Format.printf "wrote report to %s@." jpath);
      (match (cex_file, r.Mc.r_divergences) with
      | Some cpath, d :: _ ->
          Mc.write_counterexample def d cpath;
          Format.printf "wrote counterexample schedule to %s@." cpath
      | Some _, [] -> ()
      | None, _ -> ());
      if r.Mc.r_divergences <> [] then exit 1;
      if not r.Mc.r_complete then exit 3;
      exit 0

open Cmdliner

let path = Arg.(value & pos 0 (some file) None & info [] ~docv:"SPEC.wf")

let crash_depth =
  Arg.(value & opt int 0 & info [ "crash-depth" ] ~docv:"N"
         ~doc:"Explore up to $(docv) crash steps per interleaving, each a crash and restart of one site with journal recovery and the recovery handshake (default 0: no crashes).")

let torn_writes =
  Arg.(value & flag & info [ "torn-writes" ]
         ~doc:"At every crash placement also explore a torn-write crash: the site's journals are re-serialized to simulated storage, an in-flight frame is torn mid-write, and the salvage scan must rebuild exactly the journal-recovery state (requires $(b,--crash-depth) > 0; shares its budget).")

let max_states =
  Arg.(value & opt int 500_000 & info [ "max-states" ] ~docv:"N"
         ~doc:"Abort the exploration after visiting $(docv) states (exit code 3).")

let naive =
  Arg.(value & flag & info [ "naive" ]
         ~doc:"Disable the reduction, sleep sets over static coupling classes (full enumeration with fingerprint state dedup only); for measuring the reduction ratio.")

let no_gtable =
  Arg.(value & flag & info [ "no-gtable" ]
         ~doc:"Evaluate guards with the symbolic residuation engine only, bypassing compiled transition tables; for differential debugging.")

let classes =
  Arg.(value & flag & info [ "classes" ]
         ~doc:"Print the spec's coupling classes (the independence relation the reduction keys on) and exit.")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Also print every distinct closed trace.")

let json_file =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write the exploration report as one JSON object.")

let cex_file =
  Arg.(value & opt (some string) None & info [ "counterexample" ] ~docv:"FILE"
         ~doc:"On divergence, write the first diverging schedule as replayable trace JSONL (see $(b,--replay)).")

let replay_file =
  Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE"
         ~doc:"Replay a counterexample schedule written by $(b,--counterexample) and report whether the divergence reproduces.")

let cmd =
  let doc =
    "exhaustively model-check a workflow by enumerating all delivery \
     interleavings"
  in
  Cmd.v (Cmd.info "wfmc" ~doc)
    Term.(const run $ path $ crash_depth $ torn_writes $ max_states $ naive
          $ no_gtable $ classes $ verbose $ json_file $ cex_file
          $ replay_file)

let () = Cmd.eval cmd |> exit
