(* Append-only write-ahead log with periodic checkpoints.

   The journal is the durable half of a crash-recoverable actor: every
   input is appended *before* it is applied, and every [checkpoint_every]
   appends the caller snapshots its full state.  Recovery is then
   [restore checkpoint; replay suffix] — the suffix being the entries
   appended after the last checkpoint, oldest first.

   The log is polymorphic in both the entry and the checkpoint type so
   the same module backs event actors, the parametric engine, and the
   central scheduler.  Entries after the latest checkpoint are kept
   newest-first (cons is O(1)); [recover] reverses once.

   A journal may own a simulated medium: every append/checkpoint is then
   mirrored into a framed [Log] on it, and [crash] is the one path by
   which any engine's journal survives a storage crash — damage the
   medium, salvage, rebuild the mirror, report. *)

type ('entry, 'ckpt) store = {
  medium : Media.Sim.sim;
  codec : ('entry, 'ckpt) Log.codec;
  mutable log : ('entry, 'ckpt) Log.t;
}

type ('entry, 'ckpt) t = {
  checkpoint_every : int;
  mutable ckpt : 'ckpt option; (* latest checkpoint, if any *)
  mutable suffix : 'entry list; (* entries since [ckpt], newest first *)
  mutable suffix_len : int;
  mutable appended : int; (* total over the journal's lifetime *)
  mutable checkpoints : int;
  store : ('entry, 'ckpt) store option; (* durable backend, if any *)
  mutable last_salvage : Log.salvage_report option;
}

let create ?(checkpoint_every = 32) ?store () =
  if checkpoint_every <= 0 then
    invalid_arg "Journal.create: checkpoint_every must be positive";
  {
    checkpoint_every;
    ckpt = None;
    suffix = [];
    suffix_len = 0;
    appended = 0;
    checkpoints = 0;
    store =
      Option.map
        (fun (codec, medium) ->
          { medium; codec; log = Log.create codec medium })
        store;
    last_salvage = None;
  }

let append t entry =
  (match t.store with None -> () | Some s -> Log.append s.log entry);
  t.suffix <- entry :: t.suffix;
  t.suffix_len <- t.suffix_len + 1;
  t.appended <- t.appended + 1

let wants_checkpoint t = t.suffix_len >= t.checkpoint_every

let checkpoint t snapshot =
  (match t.store with None -> () | Some s -> Log.checkpoint s.log snapshot);
  t.ckpt <- Some snapshot;
  t.suffix <- [];
  t.suffix_len <- 0;
  t.checkpoints <- t.checkpoints + 1

let sync t = match t.store with None -> () | Some s -> Log.sync s.log

(* Pure read of the in-memory mirror: no backend I/O, no mutation, so
   calling it twice — or interleaved with appends, or inside the
   checkpoint window — always reflects exactly the current state. *)
let recover t = (t.ckpt, List.rev t.suffix)

(* Without a medium the in-memory journal is the durable state and a
   crash leaves it as it was.  With one, the mirror died with the site:
   the medium draws its faults, the salvage scan keeps the longest
   verifiable prefix, and the mirror is rebuilt from it. *)
let crash t =
  match t.store with
  | None -> ()
  | Some s ->
      let before = t.appended in
      Media.Sim.crash s.medium;
      let log, (ckpt, entries), report = Log.recover s.codec s.medium in
      s.log <- log;
      t.ckpt <- ckpt;
      t.suffix <- List.rev entries;
      t.suffix_len <- List.length entries;
      t.appended <- report.Log.sr_total_entries;
      t.checkpoints <- report.Log.sr_checkpoints;
      t.last_salvage <- Some report;
      Media.Sim.record_salvage s.medium ~kept:report.Log.sr_frames
        ~dropped_entries:(before - report.Log.sr_total_entries)
        ~dropped_bytes:report.Log.sr_dropped_bytes
        ~fallback:(report.Log.sr_ckpt = Log.Fallback)

let last_salvage t = t.last_salvage

let total_appended t = t.appended

module For_testing = struct
  let suffix_length t = t.suffix_len
  let checkpoints_taken t = t.checkpoints
end
