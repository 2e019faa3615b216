(** Hash tables keyed by non-negative ints, by open addressing.

    Keys sit in one int array ([-1] marks a free slot) and values in a
    parallel array, so a probe follows no bucket pointer, a hit
    allocates nothing and an immediate value (a constant constructor,
    an int, [()]) is stored unboxed.  Probing is linear from a
    multiplicative hash; removal shifts the rest of the probe chain
    back, so the table keeps no tombstones.  The arrays are allocated
    on the first {!replace}: a table that is created and never filled
    costs one small record.  The load factor stays at most 1/2. *)

type 'a t

val create : unit -> 'a t
(** An empty table; allocates no slots. *)

val length : 'a t -> int

val find : 'a t -> int -> 'a
(** Raises [Not_found] when the key is absent. *)

val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any earlier binding.  Raises
    [Invalid_argument] on a negative key. *)

val remove : 'a t -> int -> unit
(** Drop the key's binding, if any; the value is released at once. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Over every binding, in slot order. *)

val reset : 'a t -> unit
(** Drop every binding and the slots, back to a fresh table. *)

module For_testing : sig
  val capacity : 'a t -> int
  (** Slots allocated: [0] before the first {!replace}, then a power of
      two at least twice {!length}. *)

  val home : capacity:int -> int -> int
  (** The slot a key's probe starts from in a table of that capacity.
      Keys with one home at a capacity share it at every smaller one,
      so they form one probe chain across every resize up to it. *)
end
