(** The simulated storage medium under {!Log}, with seeded fault
    injection.

    The log layer writes each frame in place past the image's end
    ({!Sim.reserve}, then {!Sim.commit_frame}), reads the whole image
    back on recovery, truncates to the verified prefix, and calls
    [sync] at durability points.  A committed frame is also a layout
    hint — the medium learns where the newest frame (and newest
    checkpoint frame) starts so crash faults can target it without
    parsing the format.

    {!Sim} is the in-memory medium used everywhere in the simulator.
    Its fault model mirrors [Wf_sim.Netsim]'s crash injection:
    probabilities drawn from the medium's own RNG stream, capped by a
    fault budget, applied only when the owner declares a crash via
    {!Sim.crash} (which {!Journal.crash} does for the journal that owns
    the medium):

    - [torn_write] — the final unsynced frame is cut mid-write;
    - [lost_tail] — everything after the last [sync] is lost;
    - [bit_flip] — one random bit of the image flips;
    - [ckpt_corrupt] — the newest checkpoint frame is truncated or
      bit-flipped, forcing recovery to fall back to an older one. *)

module Sim : sig
  type fault_config = {
    torn_write : float;  (** P(final unsynced frame torn) per crash *)
    lost_tail : float;  (** P(unsynced tail lost) per crash *)
    bit_flip : float;  (** P(one random bit flips) per crash *)
    ckpt_corrupt : float;  (** P(newest checkpoint corrupted) per crash *)
    max_faults : int;  (** lifetime fault budget for this medium *)
  }

  val no_faults : fault_config

  type sim

  val create :
    ?faults:fault_config ->
    ?seed:int64 ->
    ?stats:Wf_obs.Metrics.t ->
    ?tracer:(unit -> Wf_obs.Trace.sink option) ->
    ?clock:(unit -> float) ->
    ?site:int ->
    ?actor:string ->
    unit ->
    sim
  (** Fresh empty medium.  [stats] receives [store_appends],
      [store_appended_bytes], [store_syncs] and [store_fault_*]
      counters, and the salvage counters of {!record_salvage}; the sink
      [tracer ()] names at the time receives a [Store_fault] record per
      injected fault and a [Store_salvage] record per salvage, stamped
      with [clock ()], [site] and [actor]. *)

  (** {2 What {!Log} calls} *)

  val contents : sim -> string
  val length : sim -> int

  val reserve : sim -> int -> bytes
  (** [reserve s n] grows the image to hold [n] more bytes and returns
      it: the writer fills bytes [length s] to [length s + n - 1] in
      place, then calls {!commit_frame}.  The bytes are the medium's
      own, valid until the next call on [s]. *)

  val commit_frame : sim -> len:int -> ckpt:bool -> unit
  (** The [len] bytes written past the end (after {!reserve}) are one
      frame, a checkpoint frame if [ckpt]: extend the image over them
      (counted in [store_appends] and [store_appended_bytes]) and note
      the frame as the newest. *)

  val truncate : sim -> int -> unit
  (** Cut the image to the given length; the synced watermark and the
      frame hints follow it down. *)

  val sync : sim -> unit
  (** Everything appended so far survives a crash. *)

  val note_frame : sim -> pos:int -> len:int -> ckpt:bool -> unit
  (** Note the frame at [pos] as the newest (and as the newest
      checkpoint frame if [ckpt]), for a salvaged image. *)

  (** {2 Faults} *)

  val crash : sim -> unit
  (** Declare a crash: draw each fault kind against its probability
      (always consuming the same number of RNG draws, so the stream is
      budget-independent) and apply those that fire within the
      remaining budget. *)

  val tear_tail : sim -> keep:int -> unit
  (** Cut the final unsynced frame, keeping [keep] bytes of it
      (clamped to [0, frame length - 1]).  No-op when the newest frame
      is synced or absent.  The same mutation [crash] draws, for the
      model checker's torn-write placements; it counts against no
      budget but records the fault in stats/trace. *)

  val record_salvage :
    sim -> kept:int -> dropped_entries:int -> dropped_bytes:int ->
    fallback:bool -> unit
  (** Report one salvage of the log on this medium: count
      [store_salvages], [store_dropped_entries], [store_dropped_bytes]
      and (on a checkpoint fallback) [store_ckpt_fallbacks], and trace
      a [Store_salvage] record of [kept] frames beside the medium's
      [Store_fault] records.  {!Journal.crash} is its caller. *)

  (** {2 Test hooks} *)

  module For_testing : sig
    val append : sim -> string -> unit
    (** Append raw bytes (a fixture's image), noting no frame. *)

    (** Deterministic injectors — the other mutations [crash] draws, for
        fixtures.  Each counts against nothing but records the fault in
        stats/trace. *)

    val lose_tail : sim -> unit

    val flip_bit : sim -> int -> unit
    (** Flip the given bit offset (mod image size in bits). *)

    val corrupt_ckpt : sim -> truncated:bool -> unit
    (** Truncate the image mid-checkpoint-frame, or flip a bit inside
        the checkpoint frame.  No-op when no checkpoint frame exists. *)

    val faults_injected : sim -> int
  end
end
