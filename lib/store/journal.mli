(** Append-only write-ahead log with periodic checkpoints.

    Discipline: {!append} the input {e before} applying it, then apply;
    when {!wants_checkpoint} turns true (every [checkpoint_every]
    appends) and the actor is at a transition boundary, {!checkpoint} a
    snapshot of the full state, which truncates the suffix.  After a
    crash, {!recover} returns the latest snapshot (if any) plus the
    entries appended since, oldest first; restoring the snapshot and
    replaying the suffix with side effects muted reconstructs exactly
    the pre-crash state — provided state evolution is a deterministic
    function of the input sequence, which the property suite checks.

    The journal keeps entries and checkpoints as in-memory values of
    arbitrary type; a durable backend is optional.  A journal created
    with a simulated {!Media.Sim} medium owns it: every append and
    checkpoint is mirrored into a framed {!Log} on it, and {!crash} is
    the one path by which the journal survives a storage crash — it
    damages the medium, salvages what the log's scan can verify,
    rebuilds the mirror from it and reports the salvage. *)

type ('entry, 'ckpt) t

val create :
  ?checkpoint_every:int ->
  ?store:('entry, 'ckpt) Log.codec * Media.Sim.sim ->
  unit ->
  ('entry, 'ckpt) t
(** [checkpoint_every] (default 32, must be positive) is the number of
    appends after which {!wants_checkpoint} turns true.  With [store],
    the journal owns the (empty) medium and mirrors onto it through the
    codec; [Invalid_argument] if the medium already holds an image. *)

val append : ('entry, 'ckpt) t -> 'entry -> unit

val wants_checkpoint : ('entry, 'ckpt) t -> bool
(** True once the suffix holds at least [checkpoint_every] entries.
    The caller decides {e when} to act on it: checkpoints must only be
    taken at a transition boundary, never mid-transition. *)

val checkpoint : ('entry, 'ckpt) t -> 'ckpt -> unit
(** Record a snapshot and truncate the suffix. *)

val sync : ('entry, 'ckpt) t -> unit
(** Force the durable backend's unsynced tail to storage ({!checkpoint}
    does this implicitly).  No-op without a backend. *)

val recover : ('entry, 'ckpt) t -> 'ckpt option * 'entry list
(** Latest checkpoint (or [None] if none was ever taken) and the
    entries appended after it, oldest first.

    [recover] is idempotent and side-effect-free: it reads the
    in-memory mirror without touching the backend or any mutable
    field, so [recover; append; recover] observes exactly the one
    extra entry, and calling it inside the checkpoint window (suffix
    at [checkpoint_every], snapshot not yet taken) returns the full
    suffix unchanged — double invocation can never lose or duplicate
    entries. *)

val crash : ('entry, 'ckpt) t -> unit
(** The journal a crash leaves.  Without a medium the in-memory journal
    is perfectly durable and nothing changes.  With one, the medium
    draws its seeded faults ({!Media.Sim.crash}), the salvage scan
    ({!Log.recover}) keeps the longest verifiable prefix and repairs
    the image, and the mirror is rebuilt from the salvaged checkpoint
    and suffix; {!total_appended} and {!For_testing.checkpoints_taken}
    restart from the salvaged counts.  The salvage is reported through
    the medium's own stats and trace sink ({!Media.Sim.record_salvage})
    and kept for {!last_salvage}. *)

val last_salvage : ('entry, 'ckpt) t -> Log.salvage_report option
(** What the most recent {!crash} over a medium kept and dropped;
    [None] before the first one, and always without a medium. *)

val total_appended : ('entry, 'ckpt) t -> int

(** {2 Test hooks} *)

module For_testing : sig
  val suffix_length : ('entry, 'ckpt) t -> int
  val checkpoints_taken : ('entry, 'ckpt) t -> int
end
