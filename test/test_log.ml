(* The torn-write-safe framed log: frame roundtrips, the salvage scan's
   typed verdicts, seeded storage-fault injection, checked-in corrupt
   fixture images, and the QCheck differential asserting that recovery
   over a faulted medium is always the replay of a valid prefix. *)

open Wf_store
open Helpers

(* Raw string payloads: the identity codec never fails to decode, so
   every verdict in these tests comes from the framing layer itself. *)
let string_codec : (string, string) Log.codec =
  {
    Log.enc_entry = Buffer.add_string;
    dec_entry = Option.some;
    enc_ckpt = Buffer.add_string;
    dec_ckpt = Option.some;
  }

(* Index-valued entries and prefix-length checkpoints: entry [i] is the
   i-th append, a checkpoint records how many entries preceded it.  The
   content of any salvaged (checkpoint, suffix) pair then states exactly
   which prefix of the input history it represents. *)
let int_codec : (int, int) Log.codec =
  {
    Log.enc_entry = Binio.write Binio.int;
    dec_entry = (fun s -> Binio.decode Binio.int s);
    enc_ckpt = Binio.write Binio.int;
    dec_ckpt = (fun s -> Binio.decode Binio.int s);
  }

let fresh_sim ?faults ?(seed = 1L) () = Media.Sim.create ?faults ~seed ()

let report_testable =
  Alcotest.testable Log.For_testing.pp_report (fun (a : Log.salvage_report) b -> a = b)

(* --- frame layer --------------------------------------------------------- *)

let test_roundtrip () =
  let sim = fresh_sim () in
  let log = Log.create string_codec sim in
  Log.append log "alpha";
  Log.append log "bravo";
  Log.checkpoint log "SNAP";
  Log.append log "charlie";
  Log.sync log;
  check Alcotest.int "four frames" 4 (Log.For_testing.frames_written log);
  let _, (ckpt, entries), report = Log.recover string_codec sim in
  checkb "checkpoint back" (ckpt = Some "SNAP");
  check Alcotest.(list string) "entries after checkpoint" [ "charlie" ] entries;
  check report_testable "clean report"
    {
      Log.sr_frames = 4;
      sr_entries = 1;
      sr_total_entries = 3;
      sr_checkpoints = 1;
      sr_ckpt = Log.Latest;
      sr_stop = Log.Clean;
      sr_dropped_bytes = 0;
      sr_ckpt_failures = 0;
    }
    report

let test_recover_positions_writer () =
  (* The writer handed back by [recover] continues the sequence: a
     salvage followed by appends followed by another salvage must see
     everything, exactly once, in order. *)
  let sim = fresh_sim () in
  let log = Log.create string_codec sim in
  Log.append log "a";
  Log.sync log;
  let log', _, _ = Log.recover string_codec sim in
  Log.append log' "b";
  Log.sync log';
  let _, (ckpt, entries), report = Log.recover string_codec sim in
  checkb "no checkpoint" (ckpt = None);
  check Alcotest.(list string) "both entries, in order" [ "a"; "b" ] entries;
  checkb "clean" (report.Log.sr_stop = Log.Clean)

let test_create_requires_empty () =
  let sim = fresh_sim () in
  let log = Log.create string_codec sim in
  Log.append log "a";
  checkb "create on a non-empty media rejected"
    (try
       ignore (Log.create string_codec sim);
       false
     with Invalid_argument _ -> true)

(* --- deterministic fault injectors --------------------------------------- *)

let test_tear_tail () =
  let sim = fresh_sim () in
  let log = Log.create string_codec sim in
  Log.append log "durable";
  Log.sync log;
  Log.append log "in-flight";
  Media.Sim.tear_tail sim ~keep:(Log.header_length + 2);
  let _, (ckpt, entries), report = Log.recover string_codec sim in
  checkb "no checkpoint" (ckpt = None);
  check Alcotest.(list string) "synced entry survives" [ "durable" ] entries;
  checkb "torn frame verdict" (report.Log.sr_stop = Log.Torn_frame);
  check Alcotest.int "torn bytes dropped" (Log.header_length + 2)
    report.Log.sr_dropped_bytes;
  check Alcotest.int "fault recorded" 1 (Media.Sim.For_testing.faults_injected sim);
  (* The torn bytes are gone from the image: recovery repaired it. *)
  let _, (_, entries'), report' = Log.recover string_codec sim in
  checkb "second recovery is clean" (report'.Log.sr_stop = Log.Clean);
  checkb "and agrees" (entries' = entries)

let test_tear_tail_respects_sync () =
  let sim = fresh_sim () in
  let log = Log.create string_codec sim in
  Log.append log "a";
  Log.sync log;
  Media.Sim.tear_tail sim ~keep:1;
  check Alcotest.int "synced frame cannot be torn" 0
    (Media.Sim.For_testing.faults_injected sim);
  let _, (_, entries), _ = Log.recover string_codec sim in
  check Alcotest.(list string) "entry intact" [ "a" ] entries

let test_lose_tail () =
  let sim = fresh_sim () in
  let log = Log.create string_codec sim in
  Log.append log "a";
  Log.checkpoint log "S";
  Log.append log "b";
  Log.append log "c";
  (* b, c unsynced *)
  Media.Sim.For_testing.lose_tail sim;
  let _, (ckpt, entries), report = Log.recover string_codec sim in
  checkb "checkpoint survives (it synced)" (ckpt = Some "S");
  checkb "unsynced entries gone" (entries = []);
  checkb "clean stop: the lost tail leaves a whole-frame boundary"
    (report.Log.sr_stop = Log.Clean);
  check Alcotest.int "two frames kept" 2 report.Log.sr_frames

let test_bit_flip_caught () =
  let sim = fresh_sim () in
  let log = Log.create string_codec sim in
  Log.append log "aaaa";
  Log.append log "bbbb";
  Log.sync log;
  (* Flip a payload bit of the first frame: byte 10, bit 3. *)
  Media.Sim.For_testing.flip_bit sim ((Log.header_length * 8) + 3);
  let _, (_, entries), report = Log.recover string_codec sim in
  checkb "scan stops at the flipped frame" (entries = []);
  checkb "CRC catches the flip" (report.Log.sr_stop = Log.Bad_crc);
  check Alcotest.int "nothing salvaged past it" 0 report.Log.sr_frames

let test_corrupt_ckpt_falls_back () =
  let sim = fresh_sim () in
  let log = Log.create string_codec sim in
  Log.append log "a";
  Log.checkpoint log "OLD";
  Log.append log "b";
  Log.checkpoint log "NEW";
  Log.append log "c";
  Log.sync log;
  Media.Sim.For_testing.corrupt_ckpt sim ~truncated:false;
  let _, (ckpt, entries), report = Log.recover string_codec sim in
  checkb "fell back to the older checkpoint" (ckpt = Some "OLD");
  check Alcotest.(list string) "replays from the older checkpoint" [ "b" ]
    entries;
  checkb "fallback reported" (report.Log.sr_ckpt = Log.Fallback);
  checkb "scan stopped on the corrupt checkpoint frame"
    (report.Log.sr_stop = Log.Bad_crc)

let test_crash_budget () =
  let faults =
    {
      Media.Sim.torn_write = 1.0;
      lost_tail = 0.0;
      bit_flip = 0.0;
      ckpt_corrupt = 0.0;
      max_faults = 1;
    }
  in
  let sim = fresh_sim ~faults () in
  let log = Log.create string_codec sim in
  Log.append log "a";
  Log.sync log;
  Log.append log "b";
  Media.Sim.crash sim;
  check Alcotest.int "first crash tears" 1 (Media.Sim.For_testing.faults_injected sim);
  let log', _, _ = Log.recover string_codec sim in
  Log.append log' "c";
  Media.Sim.crash sim;
  check Alcotest.int "budget exhausted: no second fault" 1
    (Media.Sim.For_testing.faults_injected sim);
  let _, (_, entries), _ = Log.recover string_codec sim in
  check Alcotest.(list string) "post-budget entry survives" [ "a"; "c" ] entries

let test_crash_deterministic () =
  (* Same seed, same faults: the injected damage is identical. *)
  let run seed =
    let faults =
      {
        Media.Sim.torn_write = 0.5;
        lost_tail = 0.3;
        bit_flip = 0.4;
        ckpt_corrupt = 0.0;
        max_faults = 4;
      }
    in
    let sim = fresh_sim ~faults ~seed () in
    let log = Log.create string_codec sim in
    Log.append log "one";
    Log.checkpoint log "S";
    Log.append log "two";
    Media.Sim.crash sim;
    Media.Sim.crash sim;
    Media.Sim.contents sim
  in
  checkb "same seed, same damage" (run 7L = run 7L);
  checkb "different seeds diverge" (run 7L <> run 8L)

(* --- checked-in fixtures (exact salvage reports) ------------------------- *)

let data_dir =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) "data";
      "data";
      "test/data";
    ]
  in
  match
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "torn_tail.log"))
      candidates
  with
  | Some d -> d
  | None -> "data"

let load_fixture name =
  let path = Filename.concat data_dir name in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture_case name expected_ckpt expected_entries expected_report () =
  let sim = Media.Sim.create () in
  Media.Sim.For_testing.append sim (load_fixture name);
  Media.Sim.sync sim;
  let _, (ckpt, entries), report = Log.recover string_codec sim in
  checkb (name ^ ": checkpoint") (ckpt = expected_ckpt);
  check Alcotest.(list string) (name ^ ": entries") expected_entries entries;
  check report_testable (name ^ ": exact salvage report") expected_report
    report

let test_fixture_torn_tail =
  fixture_case "torn_tail.log" None [ "alpha"; "bravo" ]
    {
      Log.sr_frames = 2;
      sr_entries = 2;
      sr_total_entries = 2;
      sr_checkpoints = 0;
      sr_ckpt = Log.No_checkpoint;
      sr_stop = Log.Torn_frame;
      sr_dropped_bytes = 12;
      sr_ckpt_failures = 0;
    }

let test_fixture_bitflip =
  fixture_case "bitflip.log" (Some "SNAP") [ "one" ]
    {
      Log.sr_frames = 2;
      sr_entries = 1;
      sr_total_entries = 1;
      sr_checkpoints = 1;
      sr_ckpt = Log.Latest;
      sr_stop = Log.Bad_crc;
      sr_dropped_bytes = 36;
      sr_ckpt_failures = 0;
    }

let test_fixture_truncated_ckpt =
  fixture_case "truncated_ckpt.log" (Some "SNAP1") [ "c" ]
    {
      Log.sr_frames = 4;
      sr_entries = 1;
      sr_total_entries = 3;
      sr_checkpoints = 1;
      sr_ckpt = Log.Fallback;
      sr_stop = Log.Torn_frame;
      sr_dropped_bytes = 11;
      sr_ckpt_failures = 0;
    }

(* --- journal backend ----------------------------------------------------- *)

let test_journal_mirror_reload () =
  let sim = fresh_sim () in
  let j = Journal.create ~checkpoint_every:2 ~store:(int_codec, sim) () in
  let n = ref 0 in
  for i = 0 to 6 do
    Journal.append j i;
    incr n;
    if Journal.wants_checkpoint j then Journal.checkpoint j !n
  done;
  Journal.sync j;
  let before = Journal.recover j in
  checkb "no salvage before a crash" (Journal.last_salvage j = None);
  (* A fault-free medium loses nothing on a crash: the salvage rebuilds
     exactly the mirror it replaced. *)
  Journal.crash j;
  (match Journal.last_salvage j with
  | Some report -> checkb "clean reload" (report.Log.sr_stop = Log.Clean)
  | None -> Alcotest.fail "crash over a medium reports no salvage");
  checkb "mirror agrees" (Journal.recover j = before);
  check Alcotest.int "lifetime appends carried over" 7
    (Journal.total_appended j);
  check Alcotest.int "checkpoints carried over" 3
    (Journal.For_testing.checkpoints_taken j);
  checkb "create rejects a used medium"
    (try
       ignore (Journal.create ~store:(int_codec, sim) ());
       false
     with Invalid_argument _ -> true)

(* --- the differential: salvage = replay of a valid prefix ---------------- *)

(* One generated case: [n] appends through a journal whose backend sits
   on a faulty medium, [checkpoint_every] cadence, a crash schedule
   (after which append the crash fires), and a fault mix + seed.  After
   every crash the journal is rebuilt from the salvage scan; at the end
   the reloaded content must name a prefix of the history: checkpoint
   [Some m] + suffix [m..m+k-1] with [m + k <= n'] where [n'] is the
   number of appends the journal had absorbed.  Entries are their own
   indices, so "is a prefix" is an exact structural check, not an
   approximation. *)
let gen_salvage_case =
  QCheck2.Gen.(
    tup5 (int_range 0 40) (int_range 1 6) (int_range 0 3)
      (tup4 (float_bound_inclusive 1.0) (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)
         (float_bound_inclusive 1.0))
      (int_range 1 1_000_000))

let salvage_is_prefix_replay =
  qprop ~count:320 "salvage over seeded faults = replay of a valid prefix"
    gen_salvage_case
    (fun (n, checkpoint_every, crashes, (torn, lost, flip, ckpt), seed) ->
      let faults =
        {
          Media.Sim.torn_write = torn;
          lost_tail = lost;
          bit_flip = flip;
          ckpt_corrupt = ckpt;
          max_faults = 3;
        }
      in
      let sim = Media.Sim.create ~faults ~seed:(Int64.of_int seed) () in
      let j = Journal.create ~checkpoint_every ~store:(int_codec, sim) () in
      (* Crash points: spread the requested crashes over the appends. *)
      let crash_after =
        if crashes = 0 then []
        else List.init crashes (fun i -> (i + 1) * n / (crashes + 1))
      in
      let count = ref 0 in
      let ok = ref true in
      let check_prefix () =
        let ckpt, suffix = Journal.recover j in
        let m = match ckpt with Some m -> m | None -> 0 in
        let expected = List.init (List.length suffix) (fun i -> m + i) in
        if not (suffix = expected && m + List.length suffix <= !count) then
          ok := false
      in
      let reload () =
        Journal.crash j;
        let report = Option.get (Journal.last_salvage j) in
        (* The salvage accounting must agree with the rebuilt mirror. *)
        let _, suffix = Journal.recover j in
        if
          report.Log.sr_entries <> List.length suffix
          || report.Log.sr_total_entries > !count
        then ok := false;
        (* Whatever survived defines the new history length: appends
           continue from the salvaged prefix, exactly as the recovered
           scheduler would. *)
        count := report.Log.sr_total_entries;
        check_prefix ()
      in
      for i = 0 to n - 1 do
        ignore i;
        Journal.append j !count;
        incr count;
        if Journal.wants_checkpoint j then Journal.checkpoint j !count;
        if List.mem !count crash_after then reload ()
      done;
      reload ();
      (* Recovery is idempotent: a second scan of the repaired image is
         clean and changes nothing. *)
      let _, recovered, report2 = Log.recover int_codec sim in
      if report2.Log.sr_stop <> Log.Clean then ok := false;
      if recovered <> Journal.recover j then ok := false;
      check_prefix ();
      !ok)

(* --- CRC-32 ----------------------------------------------------------------- *)

let test_crc32_check_value () =
  let b = Bytes.of_string "123456789" in
  check Alcotest.int32 "standard check value" 0xCBF43926l
    (Crc32.bytes b ~pos:0 ~len:9);
  check Alcotest.int32 "empty input" 0l (Crc32.bytes b ~pos:4 ~len:0)

(* Bit at a time, straight from the reflected polynomial, in [Int32]
   arithmetic: shares neither the table nor the int accumulator. *)
let crc32_bitwise b ~pos ~len =
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    c := Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)));
    for _ = 0 to 7 do
      let low = Int32.logand !c 1l in
      c := Int32.shift_right_logical !c 1;
      if low <> 0l then c := Int32.logxor !c 0xEDB88320l
    done
  done;
  Int32.lognot !c

let crc32_matches_bitwise =
  qprop ~count:300 "CRC-32 equals a bitwise reference at any offset"
    ~print:(fun (s, pos, len) -> Printf.sprintf "%S pos=%d len=%d" s pos len)
    QCheck2.Gen.(
      string_size ~gen:char (int_range 0 300) >>= fun s ->
      let n = String.length s in
      int_range 0 n >>= fun pos ->
      int_range 0 (n - pos) >|= fun len -> (s, pos, len))
    (fun (s, pos, len) ->
      let b = Bytes.of_string s in
      Crc32.bytes b ~pos ~len = crc32_bitwise b ~pos ~len)

let suite =
  [
    Alcotest.test_case "CRC-32 check value" `Quick test_crc32_check_value;
    crc32_matches_bitwise;
    Alcotest.test_case "append/checkpoint/recover roundtrip" `Quick
      test_roundtrip;
    Alcotest.test_case "recover positions the writer" `Quick
      test_recover_positions_writer;
    Alcotest.test_case "create requires an empty media" `Quick
      test_create_requires_empty;
    Alcotest.test_case "torn tail salvages the synced prefix" `Quick
      test_tear_tail;
    Alcotest.test_case "synced frames cannot tear" `Quick
      test_tear_tail_respects_sync;
    Alcotest.test_case "lost tail rolls back to the last sync" `Quick
      test_lose_tail;
    Alcotest.test_case "bit flips are caught by the CRC" `Quick
      test_bit_flip_caught;
    Alcotest.test_case "corrupt checkpoint falls back to the older one"
      `Quick test_corrupt_ckpt_falls_back;
    Alcotest.test_case "fault budget bounds injection" `Quick
      test_crash_budget;
    Alcotest.test_case "crash damage is seed-deterministic" `Quick
      test_crash_deterministic;
    Alcotest.test_case "fixture: torn tail" `Quick test_fixture_torn_tail;
    Alcotest.test_case "fixture: flipped bit" `Quick test_fixture_bitflip;
    Alcotest.test_case "fixture: truncated checkpoint" `Quick
      test_fixture_truncated_ckpt;
    Alcotest.test_case "journal mirrors to the log; reload rebuilds" `Quick
      test_journal_mirror_reload;
    salvage_is_prefix_replay;
  ]
