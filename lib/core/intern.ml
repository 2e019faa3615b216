(* Hash-consing of literals, terms, products, and normal forms.

   Each layer is interned by the ids of the layer below, so the generic
   hash never descends into deep structure: literals are hashed
   structurally (a symbol is strings only), everything above hashes a
   short int list with an explicit fold.  [Hashtbl.hash] is depth-capped
   (it samples ~10 meaningful nodes), so hashing raw int lists with it
   would collide badly on wide products; the fold hash keeps buckets
   balanced at any width. *)

type id = int

(* Key module for tables keyed by int lists (children ids). *)
module Ids = struct
  type t = int list

  let equal = List.equal Int.equal

  let hash ids =
    List.fold_left (fun h i -> (h * 31) + i + 1) 5381 ids land max_int
end

module Ids_tbl = Hashtbl.Make (Ids)

let lit_tbl : id Literal.Tbl.t = Literal.Tbl.create 256
let term_tbl : id Ids_tbl.t = Ids_tbl.create 1024
let prod_tbl : id Ids_tbl.t = Ids_tbl.create 1024
let nf_tbl : id Ids_tbl.t = Ids_tbl.create 1024
let next = ref 0

let fresh () =
  let id = !next in
  incr next;
  id

let literal l =
  match Literal.Tbl.find_opt lit_tbl l with
  | Some id -> id
  | None ->
      let id = fresh () in
      Literal.Tbl.add lit_tbl l id;
      id

let intern_ids tbl ids =
  match Ids_tbl.find_opt tbl ids with
  | Some id -> id
  | None ->
      let id = fresh () in
      Ids_tbl.add tbl ids id;
      id

let term (t : Term.t) = intern_ids term_tbl (List.map literal t)
let product (p : Nf.product) = intern_ids prod_tbl (List.map term p)
let nf (t : Nf.t) = intern_ids nf_tbl (List.map product t)

(* Generic id lists (e.g. Synth's γ literal sets), so derived values
   keyed on a set of ids can use an (id, id) pair key like everything
   else. *)
let ids_tbl : id Ids_tbl.t = Ids_tbl.create 1024
let ids l = intern_ids ids_tbl l

let enabled_flag = ref true
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

let clearers : (unit -> unit) list ref = ref []
let register_clearer f = clearers := f :: !clearers
let clear_memos () = List.iter (fun f -> f ()) !clearers

module Pair_key = struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = ((a * 31) + b) land max_int
end

module Pair_tbl = Hashtbl.Make (Pair_key)

module For_testing = struct
  let term = term

  let stats () =
    [
      ("literals", Literal.Tbl.length lit_tbl);
      ("terms", Ids_tbl.length term_tbl);
      ("products", Ids_tbl.length prod_tbl);
      ("nfs", Ids_tbl.length nf_tbl);
    ]
end
