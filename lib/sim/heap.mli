(** Binary min-heap keyed by [(float, int)] pairs.

    The integer component is a tie-breaking sequence number, which makes
    the simulator's event ordering total and deterministic.

    The entries are unboxed: keys sit in a [Float.Array], with the seqs
    and the values in parallel arrays, so a comparison reads two floats
    and, on a tie, two ints — it follows no pointer.  Sifting moves a
    hole instead of swapping, writing the entry being placed once.  A
    removed element is dropped from the heap's storage at once (its
    value slot is cleared), so the heap never keeps a popped value
    reachable. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val push : 'a t -> key:float -> seq:int -> 'a -> unit

val min_key : 'a t -> float
(** Key of the minimum element: one read of the key array.  The float
    it returns is boxed for a caller in another module unless the
    compiler inlines across modules, which it does not under [-opaque]
    (dune's dev profile): there each call allocates two words.  Raises
    [Invalid_argument] on an empty heap. *)

val take : 'a t -> 'a
(** Remove the minimum element and return its value.  Raises
    [Invalid_argument] on an empty heap. *)
