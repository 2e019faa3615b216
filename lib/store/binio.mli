(** Binary payload codecs for the journals.

    A codec ['a t] is one declaration that both encodes and decodes a
    type, so a journaled layout (field order, tag numbers, invariant
    checks) is written once.  Codecs are built from primitives, the
    combinators and tagged {!union}s, whose every case names its tag
    once; {!custom} is the escape hatch for a layout the combinators
    cannot state without a copy (Fleet's vectors).

    {!decode} never raises: malformed input (a truncated payload, an
    unknown tag, a bad bool or option byte, a varint past 63 bits, a
    value a {!map} rejects) and trailing garbage are all [None].  So a
    flipped payload bit that survives the frame checksum (it cannot —
    but also a logically impossible payload) surfaces as a typed decode
    failure. *)

exception Corrupt of string

type 'a t

val fail : string -> 'a
(** Raise {!Corrupt}; from a decoder, {!decode} then returns [None]. *)

val uint : int t
(** A non-negative int as an LEB128 varint ([Invalid_argument] on a
    negative one). *)

val int : int t
(** Any int, zigzag-mapped over its 63 bits, then a varint. *)

val string : string t
(** Length-prefixed bytes. *)

val bool : bool t
(** One byte, 0 or 1. *)

val unit : unit t

val option : 'a t -> 'a option t
(** A 0/1 byte, then the value. *)

val list : 'a t -> 'a list t
(** A {!uint} count, then the elements in order. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val map : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t
(** [map of_wire to_wire c] carries ['b] as [c]'s ['a]; either
    conversion may {!fail} to reject a value. *)

type 'a case

val case : int -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** [case tag fields build take_apart]: the constructor [build], whose
    values [take_apart] returns the fields of ([None] for a value of
    any other constructor), written as [tag] then its [fields]. *)

val union : int t -> 'a case list -> 'a t
(** The tag, written by the given codec ({!uint}, or a {!map} of a
    {!bool} discriminant to 0/1), then the fields of the first case
    that takes the value apart; an unknown tag fails to decode.
    [Invalid_argument] if two cases share a tag. *)

type reader

val custom : (Buffer.t -> 'a -> unit) -> (reader -> 'a) -> 'a t
(** A codec from a writer and a reader built on {!write} and {!read}. *)

val write : 'a t -> Buffer.t -> 'a -> unit
val read : 'a t -> reader -> 'a
val encode : 'a t -> 'a -> string

val decode : 'a t -> string -> 'a option
(** [Some v] iff the codec reads the whole string as [v]. *)
