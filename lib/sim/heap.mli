(** Binary min-heap keyed by [(float, int)] pairs.

    The integer component is a tie-breaking sequence number, which makes
    the simulator's event ordering total and deterministic.  A removed
    element is dropped from the heap's storage at once, so the heap
    never keeps a popped value reachable. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val push : 'a t -> key:float -> seq:int -> 'a -> unit

val min_key : 'a t -> float
(** Key of the minimum element, without allocating.  Raises
    [Invalid_argument] on an empty heap. *)

val take : 'a t -> 'a
(** Remove the minimum element and return its value.  Raises
    [Invalid_argument] on an empty heap. *)
