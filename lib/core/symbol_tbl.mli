(** Hash tables keyed by symbols, on the precomputed {!Symbol.hash}: no
    string is walked to find a bucket. *)

include Hashtbl.S with type key = Symbol.t
