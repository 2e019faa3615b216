(** Minimal JSON support for the observability layer.

    The container has no JSON library, so the trace exporter and the
    metrics registry hand-roll their output; this module centralises
    string escaping, renders whole trees ({!to_string}, used by the
    bench artifacts) and provides a small recursive-descent parser,
    used by {!Trace.parse_line} to validate traces (CI smoke job,
    tests).

    The parser accepts the JSON subset the exporters emit — objects,
    arrays, strings with standard escapes, numbers, booleans, null —
    which is all of JSON minus exotic number syntax edge cases. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val quote : string -> string
(** [quote s] is [s] escaped and wrapped in double quotes, ready to be
    spliced into a JSON document. *)

val float_str : float -> string
(** Canonical float formatting for exported JSON: integers below 1e15
    exactly, other numbers to 12 significant digits, with a guard so
    nan/inf (invalid JSON) become [null]able sentinels ([0]). *)

val to_string : t -> string
(** One-line rendering, the inverse of {!parse}: strings go through
    {!quote}, finite numbers through {!float_str}, non-finite numbers
    print [null].  [parse (to_string j) = Ok j] whenever every number
    in [j] is finite and has at most 12 significant digits. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing whitespace is allowed,
    trailing garbage is an error.  Errors carry a byte offset. *)

val member : string -> t -> t option
(** [member k (Obj _)] looks up key [k]; [None] on absence or non-objects. *)

val to_float : t -> float option
val to_int : t -> int option
val to_string_opt : t -> string option
val to_bool : t -> bool option
