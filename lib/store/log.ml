(* Length-prefixed, CRC32-checksummed, sequence-numbered framing over a
   simulated storage medium.

   Frame layout (all integers little-endian):

     magic 0xA7 (1) | tag (1) | seq u32 (4) | len u32 (4)
     | payload (len) | crc32 u32 (4)

   tag 0 = entry, tag 1 = checkpoint; the CRC covers everything before
   it (header + payload).  The durable log is strictly append-only:
   checkpoints are written inline as frames, unlike the in-memory
   journal which truncates its suffix — recovery picks the newest
   decodable checkpoint inside the verifiable prefix and replays the
   entry frames after it.

   Salvage keeps the longest verifiable prefix: the scan stops at the
   first frame that is short, mis-tagged, checksum-broken, out of
   sequence, or whose entry payload fails to decode, and reports a
   typed reason.  A checkpoint frame whose payload fails to decode does
   NOT stop the scan — its frame is checksum-valid, so later entry
   frames are still good relative to an older checkpoint; recovery
   falls back and says so in the report. *)

let magic = '\xA7'
let header_length = 10
let trailer_length = 4

type ('entry, 'ckpt) codec = {
  enc_entry : Buffer.t -> 'entry -> unit;
  dec_entry : string -> 'entry option;
  enc_ckpt : Buffer.t -> 'ckpt -> unit;
  dec_ckpt : string -> 'ckpt option;
}

let binio_codec entry ckpt =
  {
    enc_entry = Binio.write entry;
    dec_entry = Binio.decode entry;
    enc_ckpt = Binio.write ckpt;
    dec_ckpt = Binio.decode ckpt;
  }

type ('entry, 'ckpt) t = {
  codec : ('entry, 'ckpt) codec;
  media : Media.Sim.sim;
  mutable next_seq : int;
}

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
  sr_frames : int;
  sr_entries : int;
  sr_total_entries : int;
  sr_checkpoints : int;
  sr_ckpt : ckpt_source;
  sr_stop : stop_reason;
  sr_dropped_bytes : int;
  sr_ckpt_failures : int;
}

let stop_reason_name = function
  | Clean -> "clean"
  | Torn_header -> "torn_header"
  | Bad_header -> "bad_header"
  | Torn_frame -> "torn_frame"
  | Bad_crc -> "bad_crc"
  | Bad_seq -> "bad_seq"
  | Bad_entry -> "bad_entry"

(* --- writing ------------------------------------------------------------- *)

let max_payload = 1 lsl 28

(* The payload being framed.  Writes never nest, so one buffer serves
   every log; it keeps its capacity between frames. *)
let payload = Buffer.create 256

(* Frame the payload in place past the medium's end: header, payload
   and checksum are written once, straight into the image. *)
let write t ~tag ~ckpt =
  let plen = Buffer.length payload in
  if plen >= max_payload then invalid_arg "Log: payload too large";
  let flen = header_length + plen + trailer_length in
  let b = Media.Sim.reserve t.media flen in
  let pos = Media.Sim.length t.media in
  Bytes.set b pos magic;
  Bytes.set b (pos + 1) (Char.chr tag);
  Bytes.set_int32_le b (pos + 2) (Int32.of_int (t.next_seq land 0xFFFFFFFF));
  Bytes.set_int32_le b (pos + 6) (Int32.of_int plen);
  Buffer.blit payload 0 b (pos + header_length) plen;
  let crc = Crc32.bytes b ~pos ~len:(header_length + plen) in
  Bytes.set_int32_le b (pos + header_length + plen) crc;
  Media.Sim.commit_frame t.media ~len:flen ~ckpt;
  t.next_seq <- t.next_seq + 1

let append t entry =
  Buffer.clear payload;
  t.codec.enc_entry payload entry;
  write t ~tag:0 ~ckpt:false

let checkpoint t ckpt =
  Buffer.clear payload;
  t.codec.enc_ckpt payload ckpt;
  write t ~tag:1 ~ckpt:true;
  Media.Sim.sync t.media

let sync t = Media.Sim.sync t.media
let create codec media =
  if Media.Sim.length media <> 0 then
    invalid_arg "Log.create: media not empty (use recover)";
  { codec; media; next_seq = 0 }

(* --- salvage ------------------------------------------------------------- *)

let u32 img pos =
  (* absolute offsets are < 2^28, sequence numbers likewise in any run
     we can represent, so plain int is safe on 63-bit OCaml ints *)
  Int32.to_int (Bytes.get_int32_le (Bytes.unsafe_of_string img) pos)
  land 0xFFFFFFFF

let recover codec media =
  let img = Media.Sim.contents media in
  let n = String.length img in
  let entries = ref [] in
  (* entry frames since the last decodable checkpoint, newest first *)
  let ckpt = ref None in
  let frames = ref 0 in
  let total_entries = ref 0 in
  let entries_after = ref 0 in
  let checkpoints = ref 0 in
  let ckpt_failures = ref 0 in
  let verified_end = ref 0 in
  let last_frame_hint = ref None in
  let ckpt_frame_hint = ref None in
  let stopped_on_ckpt = ref false in
  let pos = ref 0 in
  let stop = ref None in
  while !stop = None do
    let remaining = n - !pos in
    if remaining = 0 then stop := Some Clean
    else if remaining < header_length then stop := Some Torn_header
    else begin
      let tag = Char.code img.[!pos + 1] in
      if img.[!pos] <> magic || tag > 1 then stop := Some Bad_header
      else begin
        let seq = u32 img (!pos + 2) in
        let plen = u32 img (!pos + 6) in
        let fsize = header_length + plen + trailer_length in
        if plen >= max_payload then stop := Some Bad_header
        else if fsize > remaining then begin
          if tag = 1 then stopped_on_ckpt := true;
          stop := Some Torn_frame
        end
        else begin
          let crc =
            Crc32.bytes
              (Bytes.unsafe_of_string img)
              ~pos:!pos
              ~len:(header_length + plen)
          in
          let stored = u32 img (!pos + header_length + plen) in
          if Int32.to_int crc land 0xFFFFFFFF <> stored then begin
            if tag = 1 then stopped_on_ckpt := true;
            stop := Some Bad_crc
          end
          else if seq <> !frames then begin
            if tag = 1 then stopped_on_ckpt := true;
            stop := Some Bad_seq
          end
          else begin
            let payload = String.sub img (!pos + header_length) plen in
            if tag = 1 then begin
              (match codec.dec_ckpt payload with
              | Some c ->
                  ckpt := Some c;
                  entries := [];
                  entries_after := 0;
                  incr checkpoints;
                  ckpt_frame_hint := Some (!pos, fsize)
              | None -> incr ckpt_failures);
              incr frames;
              last_frame_hint := Some (!pos, fsize);
              verified_end := !pos + fsize;
              pos := !pos + fsize
            end
            else
              match codec.dec_entry payload with
              | None -> stop := Some Bad_entry
              | Some e ->
                  entries := e :: !entries;
                  incr total_entries;
                  incr entries_after;
                  incr frames;
                  last_frame_hint := Some (!pos, fsize);
                  verified_end := !pos + fsize;
                  pos := !pos + fsize
          end
        end
      end
    end
  done;
  let stop = Option.get !stop in
  (* Repair in place: drop everything past the verifiable prefix and
     mark what remains durable. *)
  Media.Sim.truncate media !verified_end;
  Media.Sim.sync media;
  (match !ckpt_frame_hint with
  | Some (p, l) -> Media.Sim.note_frame media ~pos:p ~len:l ~ckpt:true
  | None -> ());
  (match (!last_frame_hint, !ckpt_frame_hint) with
  | Some (p, l), Some (cp, _) when p <> cp ->
      Media.Sim.note_frame media ~pos:p ~len:l ~ckpt:false
  | Some (p, l), None -> Media.Sim.note_frame media ~pos:p ~len:l ~ckpt:false
  | _ -> ());
  let fallback = !ckpt_failures > 0 || !stopped_on_ckpt in
  let report =
    {
      sr_frames = !frames;
      sr_entries = !entries_after;
      sr_total_entries = !total_entries;
      sr_checkpoints = !checkpoints;
      sr_ckpt =
        (match !ckpt with
        | None -> No_checkpoint
        | Some _ -> if fallback then Fallback else Latest);
      sr_stop = stop;
      sr_dropped_bytes = n - !verified_end;
      sr_ckpt_failures = !ckpt_failures;
    }
  in
  let t = { codec; media; next_seq = !frames } in
  (t, (!ckpt, List.rev !entries), report)

module For_testing = struct
  let frames_written t = t.next_seq

  let ckpt_source_name = function
    | Latest -> "latest"
    | Fallback -> "fallback"
    | No_checkpoint -> "none"

  let pp_report ppf r =
    Format.fprintf ppf
      "@[<h>frames=%d entries=%d/%d ckpts=%d ckpt=%s stop=%s dropped=%dB \
       ckpt_failures=%d@]"
      r.sr_frames r.sr_entries r.sr_total_entries r.sr_checkpoints
      (ckpt_source_name r.sr_ckpt)
      (stop_reason_name r.sr_stop)
      r.sr_dropped_bytes r.sr_ckpt_failures
end
