(* The simulated storage medium under the framed log: a growable byte
   image with a synced watermark and a fault model mirroring netsim's
   crash injection (own RNG stream, probabilities, budget), applied
   when the owner declares a crash.  The log layer needs five
   operations — read the whole image, write a frame in place past its
   end, truncate, sync, and a layout hint for the last frame — and
   calls them directly. *)

module Sim = struct
  type fault_config = {
    torn_write : float;
    lost_tail : float;
    bit_flip : float;
    ckpt_corrupt : float;
    max_faults : int;
  }

  let no_faults =
    {
      torn_write = 0.0;
      lost_tail = 0.0;
      bit_flip = 0.0;
      ckpt_corrupt = 0.0;
      max_faults = 0;
    }

  type meters = {
    appends : Wf_obs.Metrics.counter;
    appended_bytes : Wf_obs.Metrics.counter;
    syncs : Wf_obs.Metrics.counter;
  }

  type sim = {
    faults : fault_config;
    rng : Wf_sim.Rng.t;
    mutable data : Bytes.t;
    mutable len : int;
    mutable synced : int; (* bytes guaranteed durable across a crash *)
    (* Position and length of the newest frame and of the newest
       checkpoint frame; a position of -1 means there is none. *)
    mutable frame_pos : int;
    mutable frame_len : int;
    mutable ckpt_pos : int;
    mutable ckpt_len : int;
    mutable injected : int;
    stats : Wf_obs.Metrics.t option;
    mutable meters : meters option; (* on [stats], once resolved *)
    tracer : unit -> Wf_obs.Trace.sink option;
    clock : unit -> float;
    site : int;
    actor : string;
  }

  let create ?(faults = no_faults) ?(seed = 1L) ?stats
      ?(tracer = fun () -> None) ?(clock = fun () -> 0.0) ?(site = 0) ?(actor = "") () =
    {
      faults;
      rng = Wf_sim.Rng.create seed;
      data = Bytes.create 256;
      len = 0;
      synced = 0;
      frame_pos = -1;
      frame_len = 0;
      ckpt_pos = -1;
      ckpt_len = 0;
      injected = 0;
      stats;
      meters = None;
      tracer;
      clock;
      site;
      actor;
    }

  let contents s = Bytes.sub_string s.data 0 s.len
  let length s = s.len
  let faults_injected s = s.injected

  let incr_stat s name =
    match s.stats with None -> () | Some m -> Wf_obs.Metrics.incr m name

  let k_appends = Wf_obs.Metrics.key "store_appends"
  let k_appended_bytes = Wf_obs.Metrics.key "store_appended_bytes"
  let k_syncs = Wf_obs.Metrics.key "store_syncs"

  (* The per-append and per-sync counters, resolved on the medium's
     first append or sync; crash-time counters stay name-keyed. *)
  let meters s =
    match (s.meters, s.stats) with
    | (Some _ as m), _ | (None as m), None -> m
    | None, Some stats ->
        let c = Wf_obs.Metrics.counter stats in
        let m =
          Some
            {
              appends = c k_appends;
              appended_bytes = c k_appended_bytes;
              syncs = c k_syncs;
            }
        in
        s.meters <- m;
        m

  let add_stat s name n =
    match s.stats with None -> () | Some m -> Wf_obs.Metrics.add m name n

  let ensure s extra =
    let need = s.len + extra in
    if need > Bytes.length s.data then begin
      let cap = ref (max 256 (Bytes.length s.data)) in
      while !cap < need do
        cap := !cap * 2
      done;
      let data = Bytes.create !cap in
      Bytes.blit s.data 0 data 0 s.len;
      s.data <- data
    end

  (* [n] bytes were appended past the old end. *)
  let extend s n =
    s.len <- s.len + n;
    match meters s with
    | None -> ()
    | Some m ->
        Wf_obs.Metrics.bump m.appends;
        Wf_obs.Metrics.bump_by m.appended_bytes n

  let append s chunk =
    let n = String.length chunk in
    ensure s n;
    Bytes.blit_string chunk 0 s.data s.len n;
    extend s n

  let truncate s n =
    if n < 0 || n > s.len then invalid_arg "Media.Sim.truncate";
    s.len <- n;
    s.synced <- min s.synced n;
    if s.frame_pos + s.frame_len > n then s.frame_pos <- -1;
    if s.ckpt_pos + s.ckpt_len > n then s.ckpt_pos <- -1

  let sync s =
    s.synced <- s.len;
    match meters s with None -> () | Some m -> Wf_obs.Metrics.bump m.syncs

  let note_frame s ~pos ~len ~ckpt =
    s.frame_pos <- pos;
    s.frame_len <- len;
    if ckpt then begin
      s.ckpt_pos <- pos;
      s.ckpt_len <- len
    end

  let reserve s n =
    ensure s n;
    s.data

  let commit_frame s ~len ~ckpt =
    let pos = s.len in
    extend s len;
    note_frame s ~pos ~len ~ckpt

  (* The newest frame, when it ends the image unsynced: what a torn
     write can cut. *)
  let unsynced_tail s =
    s.frame_pos >= 0 && s.frame_pos + s.frame_len = s.len && s.frame_pos >= s.synced

  (* --- fault injection ---------------------------------------------------- *)

  let emit s kind =
    match s.tracer () with
    | None -> ()
    | Some sink ->
        Wf_obs.Trace.emit sink
          (Wf_obs.Trace.make ~time:(s.clock ()) ~site:s.site ~actor:s.actor kind)

  let record_fault s name =
    s.injected <- s.injected + 1;
    incr_stat s ("store_fault_" ^ name);
    emit s (Wf_obs.Trace.Store_fault { fault = name })

  let record_salvage s ~kept ~dropped_entries ~dropped_bytes ~fallback =
    incr_stat s "store_salvages";
    add_stat s "store_dropped_entries" dropped_entries;
    add_stat s "store_dropped_bytes" dropped_bytes;
    if fallback then incr_stat s "store_ckpt_fallbacks";
    emit s (Wf_obs.Trace.Store_salvage { kept; dropped = dropped_bytes; fallback })

  (* Deterministic injectors: exactly the mutations the seeded [crash]
     path draws, exposed directly so fixtures and the model checker can
     place a specific fault without consuming randomness. *)

  let lose_tail s =
    if s.len > s.synced then begin
      truncate s s.synced;
      record_fault s "lost_tail"
    end

  let tear_tail s ~keep =
    if unsynced_tail s then begin
      let keep = max 0 (min keep (s.frame_len - 1)) in
      truncate s (s.frame_pos + keep);
      record_fault s "torn"
    end

  let flip_bit s bit =
    let nbits = s.len * 8 in
    if nbits > 0 then begin
      let bit = ((bit mod nbits) + nbits) mod nbits in
      let i = bit / 8 and m = 1 lsl (bit mod 8) in
      Bytes.set s.data i (Char.chr (Char.code (Bytes.get s.data i) lxor m));
      record_fault s "bit_flip"
    end

  let corrupt_ckpt s ~truncated =
    if s.ckpt_pos >= 0 then begin
      let pos = s.ckpt_pos and flen = s.ckpt_len in
      if truncated then truncate s (pos + (flen / 2))
      else begin
        (* Flip a bit inside the checkpoint frame's payload region,
           past the 10-byte header so the frame still parses far
           enough to identify itself before the CRC rejects it. *)
        let off = pos + min (flen - 1) (10 + ((flen - 10) / 2)) in
        Bytes.set s.data off
          (Char.chr (Char.code (Bytes.get s.data off) lxor 0x10))
      end;
      record_fault s "ckpt_corrupt"
    end

  let crash s =
    (* Draw every probability unconditionally so the RNG stream does
       not depend on the budget, mirroring netsim's crash path. *)
    let roll p = p > 0.0 && Wf_sim.Rng.float s.rng 1.0 < p in
    let budget () = s.injected < s.faults.max_faults in
    let want_lost = roll s.faults.lost_tail in
    let want_torn = roll s.faults.torn_write in
    let want_ckpt = roll s.faults.ckpt_corrupt in
    let want_flip = roll s.faults.bit_flip in
    if want_lost && budget () then lose_tail s;
    if want_torn && budget () && unsynced_tail s then
      tear_tail s ~keep:(Wf_sim.Rng.int s.rng s.frame_len);
    if want_ckpt && budget () && s.ckpt_pos >= 0 then
      corrupt_ckpt s ~truncated:(Wf_sim.Rng.bool s.rng);
    if want_flip && budget () && s.len > 0 then
      flip_bit s (Wf_sim.Rng.int s.rng (s.len * 8))

  module For_testing = struct
    let append = append
    let lose_tail = lose_tail
    let flip_bit = flip_bit
    let corrupt_ckpt = corrupt_ckpt
    let faults_injected = faults_injected
  end
end
