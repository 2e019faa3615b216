(* The hash is precomputed at construction: symbols are hashed far more
   often than they are created (every interning probe and literal-table
   lookup hashes one), and hashing the name strings on each probe was
   the dominant per-edge cost of automaton construction.  The field is
   derived deterministically from [(base, args)], so structural
   equality and the polymorphic hash remain consistent for equal
   symbols. *)
type t = { base : string; args : string list; h : int }

let compute_hash base args = Hashtbl.hash (base, args)
let make base = { base; args = []; h = compute_hash base [] }
let parametrized base args = { base; args; h = compute_hash base args }

let name t =
  match t.args with
  | [] -> t.base
  | args -> Printf.sprintf "%s(%s)" t.base (String.concat "," args)

let base t = t.base
let args t = t.args

let compare a b =
  (* Symbols are created once and shared, so map probes almost always
     compare a symbol against itself; the pointer test skips the string
     walk in that case without affecting the order. *)
  if a == b then 0
  else
    match String.compare a.base b.base with
  | 0 -> List.compare String.compare a.args b.args
  | c -> c

(* Unequal hashes prove inequality, so [equal] answers most distinct
   pairs without walking a name; [compare] cannot use the hash because
   map order is the string order. *)
let equal a b = a.h = b.h && compare a b = 0
let hash t = t.h
let pp ppf t = Format.pp_print_string ppf (name t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
