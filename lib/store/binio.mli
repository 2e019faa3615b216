(** Binary payload primitives for the journal codecs: varint integers
    (zigzag for signed), length-prefixed strings, bools, options,
    lists.  Encoders write to a [Buffer]; decoders read from a string
    through a cursor and raise {!Corrupt} on malformed input.
    {!decode} turns both [Corrupt] and trailing garbage into [None],
    so a flipped payload bit that survives the frame checksum (it
    cannot — but also a logically impossible payload) surfaces as a
    typed decode failure, never an exception. *)

exception Corrupt of string

type reader

val reader : string -> reader

val put_uint : Buffer.t -> int -> unit
val get_uint : reader -> int

val put_int : Buffer.t -> int -> unit
val get_int : reader -> int

val put_string : Buffer.t -> string -> unit
val get_string : reader -> string

val put_bool : Buffer.t -> bool -> unit
val get_bool : reader -> bool

val put_option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val get_option : (reader -> 'a) -> reader -> 'a option

val put_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
val get_list : (reader -> 'a) -> reader -> 'a list

val encode : (Buffer.t -> 'a -> unit) -> 'a -> string
val decode : (reader -> 'a) -> string -> 'a option
(** [decode get s] is [Some v] iff [get] consumes [s] exactly. *)
