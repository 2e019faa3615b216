(** Binary codecs for the core types carried in scheduler journals.

    Each value is one {!Wf_store.Binio.t} declaration that encodes and
    decodes.  Every decoder rebuilds values through public
    constructors, so interning and structural invariants are
    re-established on decode: a term that repeats a symbol, a guard
    mask outside {!Wf_core.Symbol_state.full}, or knowledge that gives
    a symbol two contradicting occurrences fails typed; it is never
    admitted. *)

open Wf_core

val symbol : Symbol.t Wf_store.Binio.t
val polarity : Literal.polarity Wf_store.Binio.t
val literal : Literal.t Wf_store.Binio.t
val symbol_set : Symbol.Set.t Wf_store.Binio.t
val literal_set : Literal.Set.t Wf_store.Binio.t
val guard : Guard.t Wf_store.Binio.t
val knowledge : Knowledge.t Wf_store.Binio.t
val message : Messages.t Wf_store.Binio.t
