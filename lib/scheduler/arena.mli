(** Segmented int store for fleet-scale per-instance state.

    One row per parameter binding, one column per state word (event
    fates, compiled-guard states).  Rows are dense — the fleet engine's
    binding interner hands out consecutive ids — and live in fixed-size
    segments of 4096 rows each, so the whole fleet's guard state
    is a handful of flat int arrays: no per-instance heap blocks, no
    boxing, O(1) access.  Growth appends a segment and never copies a
    row.  The arena is never serialized: the fleet engine rebuilds it
    from its occurrence log on restore. *)

type t

val create : width:int -> t
(** An empty arena; [width] is fixed for its lifetime.  Cells of rows
    made addressable by {!ensure} start at [0]. *)

val width : t -> int

val rows : t -> int
(** Rows in use, i.e. one past the highest row ever passed to
    {!ensure}. *)

val ensure : t -> int -> unit
(** Make row [i] addressable, appending zero-filled segments as
    needed. *)

val get : t -> int -> int -> int
(** [get t row col].  The row must have been {!ensure}d. *)

val set : t -> int -> int -> int -> unit

val words : t -> int
(** Allocated size in words (whole segments, not just rows in use) —
    the bench's bytes-per-instance accounting. *)

val equal : t -> t -> bool
(** Same width, same rows in use, cell-for-cell equal. *)

(** Append-only segmented vector: the fleet's occurrence log and
    binding-token table.  An entry is never written again once pushed,
    which is what lets a checkpoint share the segments. *)
module Vec : sig
  type 'a t

  val create : 'a -> 'a t
  (** An empty vector; the value fills unused slots of a segment. *)

  val length : 'a t -> int

  val get : 'a t -> int -> 'a
  (** Raises [Invalid_argument] outside [0, length). *)

  val push : 'a t -> 'a -> unit
  (** Append, allocating a new segment when the last one is full; never
      copies an entry. *)

  val share : 'a t -> 'a t
  (** A read-only view of the current entries: shares every segment,
      copies the directory (one word per segment).  Later pushes to the
      original land past the view's length and stay invisible to it. *)

  val restore : 'a t -> 'a t
  (** A writable vector with a view's entries.  Full segments stay
      shared; the partially filled last one is copied, so pushes to the
      result never land in an array that the view's source, or any
      other vector restored from it, can write. *)

  val iter : ('a -> unit) -> 'a t -> unit

  val words : 'a t -> int
  (** Allocated size in words (whole segments plus the directory). *)
end

(** {2 Test hooks} *)

module For_testing : sig
  val seg_rows : int
  (** Rows (or {!Vec} entries) per segment: 4096. *)
end
