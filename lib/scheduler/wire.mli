(** Binary codecs for the core types carried in scheduler journals.

    Encoders write into a [Buffer]; decoders read a
    {!Wf_store.Binio.reader} and raise [Wf_store.Binio.Corrupt] on
    malformed input.  Every decoder rebuilds values through public
    constructors, so interning and structural invariants (term symbol
    distinctness, knowledge single-fate-per-symbol) are re-established
    on decode — a payload that would violate them fails typed, it is
    never admitted. *)

open Wf_core

type reader = Wf_store.Binio.reader

val put_symbol : Buffer.t -> Symbol.t -> unit
val get_symbol : reader -> Symbol.t
val put_polarity : Buffer.t -> Literal.polarity -> unit
val get_polarity : reader -> Literal.polarity
val put_literal : Buffer.t -> Literal.t -> unit
val get_literal : reader -> Literal.t
val put_symbol_set : Buffer.t -> Symbol.Set.t -> unit
val get_symbol_set : reader -> Symbol.Set.t
val put_literal_set : Buffer.t -> Literal.Set.t -> unit
val get_literal_set : reader -> Literal.Set.t
val put_guard : Buffer.t -> Guard.t -> unit
val get_guard : reader -> Guard.t
val put_knowledge : Buffer.t -> Knowledge.t -> unit
val get_knowledge : reader -> Knowledge.t
val put_message : Buffer.t -> Messages.t -> unit
val get_message : reader -> Messages.t
