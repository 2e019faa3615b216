(** Structured trace layer: typed records at the load-bearing decision
    points of the stack, behind a sink that costs nothing when absent.

    Producers hold a [sink option] and emit with an inline match —
    [match tracer with None -> () | Some s -> Trace.emit s (...)] — so
    a disabled tracer allocates nothing and adds one branch per
    decision point.  The emission points are:

    - {b Netsim}: [Send] / [Deliver] / [Drop] (link loss, partition,
      crash window) / [Crash] / [Restart];
    - {b Channel}: [Retransmit] / [Give_up] / [Ack] (pending entry
      cleared by an ack) / [Epoch_bump] (restart handshake);
    - {b schedulers} ([Actor], [Central_sched], [Param_sched]):
      [Assim], the outcome of assimilating an attempt or occurrence
      into a guard — enabled, parked, reduced (progress without
      enabling), rejected, or forced — with the interned id of the
      guard that was evaluated ({!Wf_core.Guard.uid}).

    {2 Record schema}

    Every record carries simulated time, the site it happened on, and
    a kind; [actor], [epoch] and [mid] (message id) are optional
    ([""] / [-1] mean absent and are omitted from exports).  The JSONL
    export writes one object per line with short keys:
    [{"t":..,"kind":"send","site":0,"src":0,"dst":1,"control":false}].
    {!parse_line} / {!validate_file} check the inverse direction
    (closed kind set, per-kind required fields, non-decreasing time)
    and are what the CI trace-smoke job runs.

    Each kind's wire name and fields are declared once, in one table
    that the JSONL writer, {!write_chrome} and {!parse_line} all read:
    a new field is declared there and nowhere else.  Chrome [args] are
    the JSONL fields past [t], [kind] and [site]. *)

type drop_reason = Link | Partition | Crashed

type outcome = Enabled | Parked | Reduced | Rejected | Forced

type kind =
  | Send of { src : int; dst : int; control : bool }
  | Deliver of { src : int; dst : int }
  | Drop of { src : int; dst : int; reason : drop_reason }
  | Crash
  | Restart
  | Retransmit of { dst : int; tries : int }
  | Give_up of { dst : int }
  | Ack of { dst : int }
  | Epoch_bump  (** new epoch in the record's [epoch] field *)
  | Assim of { outcome : outcome; guard : int }
  | Store_fault of { fault : string }
      (** Seeded storage fault injected by [Wf_store.Media.Sim] at crash
          time; [fault] is one of ["torn"], ["lost_tail"], ["bit_flip"],
          ["ckpt_corrupt"]. *)
  | Store_salvage of { kept : int; dropped : int; fallback : bool }
      (** A durable journal was scanned on recovery: [kept] frames
          verified, [dropped] bytes discarded past the verifiable
          prefix, [fallback] true when the latest checkpoint was
          unusable and recovery fell back to an earlier one. *)
  | Shed of { depth : int; retry_after : float }
      (** The admission controller refused an attempt because local
          queue depth crossed the shed watermark; the agent retries
          after [retry_after] of simulated time (seeded backoff). *)
  | Credit of { peer : int; grant : int; reset : bool }
      (** The record's site granted [grant] send credits to [peer];
          [reset] when the grant re-announces a full window after an
          epoch bump instead of topping up incrementally. *)
  | Dead_letter of { dst : int; tries : int }
      (** The channel parked a message for [dst] in the dead-letter
          buffer after [tries] retransmissions (the retry cap, 30);
          one record per [chan_gave_up] increment. *)

type record = {
  time : float;
  site : int;
  actor : string;  (** [""] = not actor-scoped *)
  epoch : int;  (** [-1] = no epoch context *)
  mid : int;  (** [-1] = no message id *)
  kind : kind;
}

val make :
  time:float -> site:int -> ?actor:string -> ?epoch:int -> ?mid:int -> kind ->
  record

(** {2 Sinks} *)

type sink

val emit : sink -> record -> unit

val collector : unit -> sink * (unit -> record list)
(** An in-memory sink; the closure returns records in emission order. *)

val streaming : (record -> unit) -> sink
(** Wrap any consumer (e.g. a line writer) as a sink. *)

(** {2 Export} *)

val kind_name : record -> string
(** The wire name of the record's kind: ["send"], ["deliver"],
    ["drop"], ["crash"], ["restart"], ["retransmit"], ["give_up"],
    ["ack"], ["epoch_bump"], ["assim"], ["store_fault"],
    ["store_salvage"], ["shed"], ["credit"], ["dead_letter"]. *)

val write_jsonl : out_channel -> record list -> unit

val write_chrome : out_channel -> record list -> unit
(** Chrome [trace_event] JSON ([{"traceEvents":[...]}]): instant
    events, [ts] in microseconds of simulated time, [pid] = site, so a
    trace opens directly in [chrome://tracing] / Perfetto with one
    track per site.  An event is named by its kind, qualified by the
    enum in its payload (["drop:link"], ["assim:parked"]), and its
    [args] are the record's JSONL fields past [t], [kind] and [site]. *)

(** {2 Validation} *)

val parse_line : string -> (record, string) result
(** Inverse of {!For_testing.line_of}; rejects unknown kinds, missing per-kind
    fields, unknown enum names (drop reason, assim outcome, store fault),
    and malformed JSON. *)

val validate_file : string -> (int, string) result
(** Parse every line of a JSONL trace and check time is non-decreasing;
    [Ok n] is the number of records, errors carry the line number. *)

(** {2 Test hooks} *)

module For_testing : sig
  val line_of : record -> string
  (** One JSONL line (no trailing newline). *)
end
