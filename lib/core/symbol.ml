(* The hash is precomputed at construction: symbols are hashed far more
   often than they are created (every interning probe and literal-table
   lookup hashes one), and hashing the name strings on each probe was
   the dominant per-edge cost of automaton construction.

   [kb] and [ka] are order-preserving integer keys, computed once for
   the same reason: every map, set and guard-mask probe compares
   symbols, and the string walk of [String.compare] was most of a
   [Knowledge] probe.  A string's key packs its first 7 bytes,
   zero-padded, big-endian, above its length capped at 8 (4 bits), so
   it is below 2^60, and two keys compare like the strings unless both
   strings are at least 8 bytes long and share their first 7
   ([key_walks]).  [kb] is the base's key.  [ka] is the first
   argument's key shifted left by one, its low bit set when the keys do
   not hold the whole argument list (the first argument is 8 bytes or
   longer, or more arguments follow); [no_arg] without arguments, below
   every such value.  A symbol whose [kb] does not walk and whose [ka]
   is even is exact: its keys are its whole name.

   Every field is derived deterministically from [(base, args)] and the
   derived ones come last, so structural equality and [Stdlib.compare]
   stay consistent for equal symbols and keep the name order. *)
type t = { base : string; args : string list; h : int; kb : int; ka : int }

let key s =
  let n = String.length s in
  let m = if n < 8 then n else 7 in
  let k = ref 0 in
  for i = 0 to m - 1 do
    k := (!k lsl 8) lor Char.code (String.unsafe_get s i)
  done;
  (!k lsl ((8 * (7 - m)) + 4)) lor if n < 8 then n else 8

(* A key's length field is 8 for a string that keys cannot decide. *)
let[@inline] key_walks k = k land 15 = 8
let no_arg = -2

let parametrized base args =
  let ka =
    match args with
    | [] -> no_arg
    | a :: rest ->
        let k = key a in
        let more = match rest with [] -> key_walks k | _ :: _ -> true in
        (k lsl 1) lor if more then 1 else 0
  in
  { base; args; h = Hashtbl.hash (base, args); kb = key base; ka }

let make base = parametrized base []

let name t =
  match t.args with
  | [] -> t.base
  | args -> Printf.sprintf "%s(%s)" t.base (String.concat "," args)

let base t = t.base
let args t = t.args

(* Compares that walked a name, read by [For_testing.string_walks]. *)
let walks = ref 0

let walk a b =
  incr walks;
  match String.compare a.base b.base with
  | 0 -> List.compare String.compare a.args b.args
  | c -> c

(* Symbols are created once and shared, so map probes often compare a
   symbol against itself; the pointer test answers that case.  Equal
   base keys that do not walk mean equal bases, and then [ka] decides:
   unequal values order the argument lists (a first argument followed
   by more sorts after the same one alone, by the low bit), and equal
   even ones mean equal lists.  Only tied keys that walk fall back to
   the names. *)
let compare a b =
  if a == b then 0
  else if a.kb <> b.kb then (if a.kb < b.kb then -1 else 1)
  else if key_walks a.kb then walk a b
  else if a.ka <> b.ka then (if a.ka < b.ka then -1 else 1)
  else if a.ka land 1 = 0 then 0
  else walk a b

(* Unequal hashes or keys prove inequality, so [equal] answers most
   distinct pairs without walking a name. *)
let equal a b =
  a == b
  || a.h = b.h && a.kb = b.kb && a.ka = b.ka
     && ((a.ka land 1 = 0 && not (key_walks a.kb)) || walk a b = 0)

let hash t = t.h
let pp ppf t = Format.pp_print_string ppf (name t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module For_testing = struct
  let string_walks () = !walks
end
