(** Torn-write-safe framed log over a simulated {!Media.Sim} medium.

    Each record is one frame:

    {v
    magic 0xA7 (1) | tag (1) | seq u32 LE (4) | len u32 LE (4)
    | payload (len) | crc32 u32 LE (4)
    v}

    with tag 0 = entry, tag 1 = checkpoint, and the CRC-32 covering
    header + payload.  The log is append-only — checkpoints are inline
    frames — and {!recover} salvages the longest verifiable prefix:
    frames are verified in order (magic, tag, length sanity, checksum,
    sequence number, entry decode) and the scan stops at the first
    failure with a typed {!stop_reason}.  A checksum-valid checkpoint
    frame whose payload fails to decode is skipped, not fatal:
    recovery falls back to the previous checkpoint and keeps replaying
    the entry frames after it, reporting [sr_ckpt = Fallback].
    Recovery never silently diverges — everything dropped or skipped
    is in the {!salvage_report}. *)

val header_length : int

type ('entry, 'ckpt) codec = {
  enc_entry : Buffer.t -> 'entry -> unit;
  dec_entry : string -> 'entry option;
  enc_ckpt : Buffer.t -> 'ckpt -> unit;
  dec_ckpt : string -> 'ckpt option;
}
(** Payload codecs.  Encoders append the payload to the buffer (the
    log frames it from there, straight into the medium).  Decoders
    return [None] on any malformed payload (never raise) —
    {!Binio.decode} has exactly this contract. *)

val binio_codec : 'entry Binio.t -> 'ckpt Binio.t -> ('entry, 'ckpt) codec
(** Entries and checkpoints through their {!Binio} codecs. *)

type ('entry, 'ckpt) t

val create : ('entry, 'ckpt) codec -> Media.Sim.sim -> ('entry, 'ckpt) t
(** Fresh writer positioned at sequence 0.  Raises [Invalid_argument]
    if the media is non-empty — existing images go through {!recover}. *)

val append : ('entry, 'ckpt) t -> 'entry -> unit
(** Write one entry frame.  Not synced: a crash may tear or drop it. *)

val checkpoint : ('entry, 'ckpt) t -> 'ckpt -> unit
(** Write one checkpoint frame, then [sync] — a checkpoint is a
    durability point. *)

val sync : ('entry, 'ckpt) t -> unit
(** {2 Salvage} *)

type stop_reason =
  | Clean
  | Torn_header  (** fewer bytes than a frame header at the tail *)
  | Bad_header  (** wrong magic, unknown tag, or insane length *)
  | Torn_frame  (** header fine, payload + checksum run past the end *)
  | Bad_crc
  | Bad_seq
  | Bad_entry  (** checksum fine but the entry payload did not decode *)

type ckpt_source = Latest | Fallback | No_checkpoint

type salvage_report = {
  sr_frames : int;  (** frames in the verified prefix *)
  sr_entries : int;  (** entries to replay after the chosen checkpoint *)
  sr_total_entries : int;  (** all entry frames in the verified prefix *)
  sr_checkpoints : int;  (** decodable checkpoint frames seen *)
  sr_ckpt : ckpt_source;
      (** [Fallback] when a newer checkpoint existed but was unusable
          (payload decode failure, or the scan stopped on a corrupt
          checkpoint frame) *)
  sr_stop : stop_reason;
  sr_dropped_bytes : int;  (** bytes discarded past the verified prefix *)
  sr_ckpt_failures : int;  (** checksum-valid checkpoints that failed decode *)
}

val recover :
  ('entry, 'ckpt) codec ->
  Media.Sim.sim ->
  ('entry, 'ckpt) t * ('ckpt option * 'entry list) * salvage_report
(** Scan the media, salvage the longest verifiable prefix, truncate the
    media to it (and sync — salvage repairs the image in place), and
    return a writer positioned after the last verified frame together
    with the recovery data: the chosen checkpoint and the entries after
    it, oldest first.  Idempotent: recovering the repaired media again
    yields the same state with a [Clean] stop. *)

(** {2 Test hooks} *)

module For_testing : sig
  val frames_written : ('entry, 'ckpt) t -> int
  val ckpt_source_name : ckpt_source -> string
  val pp_report : Format.formatter -> salvage_report -> unit
end
