(** Flat int-array store for fleet-scale per-instance state.

    One row per parameter binding, one column per state word (event
    fates, compiled-guard states).  Rows are dense — the fleet engine's
    binding interner hands out consecutive ids — so the whole fleet's
    guard state is a single int array: no per-instance heap blocks, no
    boxing, O(1) access.  The arena is never serialized: the fleet
    engine rebuilds it from its occurrence log on restore. *)

type t

val create : ?capacity:int -> width:int -> unit -> t
(** [capacity] is the initial row capacity (default 1024); the arena
    doubles as rows are added.  [width] is fixed for the arena's
    lifetime.  All cells start at [0]. *)

val width : t -> int

val rows : t -> int
(** Rows in use, i.e. one past the highest row ever passed to
    {!ensure}. *)

val ensure : t -> int -> unit
(** Make row [i] addressable (growing and zero-filling as needed). *)

val get : t -> int -> int -> int
(** [get t row col].  The row must have been {!ensure}d. *)

val set : t -> int -> int -> int -> unit

val words : t -> int
(** Allocated size in words (capacity, not just rows in use) — the
    bench's bytes-per-instance accounting. *)

val equal : t -> t -> bool
(** Same width, same rows in use, cell-for-cell equal. *)
