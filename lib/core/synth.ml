(* --- naive reference ----------------------------------------------------
   The original per-call implementation: a [Map] memo built afresh for
   each [guard_nf_naive] call and discarded afterwards, on top of
   memo-free residuation.  Kept as the differential-testing oracle and
   the "before" leg of the benches. *)

module Key = struct
  type t = Nf.t * Literal.t

  let compare (n1, l1) (n2, l2) =
    match Nf.compare n1 n2 with 0 -> Literal.compare l1 l2 | c -> c
end

module Memo = Map.Make (Key)

let gamma d e =
  Literal.Set.elements
    (Literal.Set.filter
       (fun l -> not (Symbol.equal (Literal.symbol l) (Literal.symbol e)))
       (Nf.literals d))

let rec guard_memo memo (d : Nf.t) (e : Literal.t) =
  match Memo.find_opt (d, e) !memo with
  | Some g -> g
  | None ->
      let gamma_de = gamma d e in
      let first =
        Guard.conj
          (Guard.will_nf (Residue.nf_naive d e))
          (Guard.conj_all (List.map Guard.hasnt gamma_de))
      in
      let branch f = (f, guard_memo memo (Residue.nf_naive d f) e) in
      let g = Guard.branch_sum first (List.map branch gamma_de) in
      memo := Memo.add (d, e) g !memo;
      g

let guard_nf_naive d e = guard_memo (ref Memo.empty) d e

(* --- shared-memo fast path ----------------------------------------------
   One process-wide table keyed on interned ids.  [G(D,e)] recursion
   revisits the same [(residual, event)] pairs both within one guard
   (diamonds in the residual graph) and across the guards of a workflow
   ([guards] residuates the same dependency for every literal), so a
   memo that outlives the call replaces recomputation with a hash probe. *)

let guard_tbl : Guard.t Intern.Pair_tbl.t = Intern.Pair_tbl.create 4096
let () = Intern.register_clearer (fun () -> Intern.Pair_tbl.reset guard_tbl)

(* The literal list of a residual is needed at every recursion node, for
   every event it is residuated against; computing it once per distinct
   interned form — literal ids riding along — shares the walk across all
   of a workflow's guards. *)
let lits_tbl : (Intern.id, (Literal.t * Intern.id) list) Hashtbl.t =
  Hashtbl.create 1024

let () = Intern.register_clearer (fun () -> Hashtbl.reset lits_tbl)

let nf_literals d d_id =
  match Hashtbl.find_opt lits_tbl d_id with
  | Some l -> l
  | None ->
      let l =
        List.map
          (fun l -> (l, Intern.literal l))
          (Literal.Set.elements (Nf.literals d))
      in
      Hashtbl.add lits_tbl d_id l;
      l

let gamma_shared d d_id e =
  List.filter
    (fun (l, _) -> not (Symbol.equal (Literal.symbol l) (Literal.symbol e)))
    (nf_literals d d_id)

(* The non-recursive head of a node, [◇(D/e) ∧ ⋀_{f∈γ} ¬f], depends on
   the node only through the residual and γ — and those recur across
   the workflow's guards (removing different events from a dependency
   often leaves the same remnant), so both the ¬-product and the whole
   conjunction are keyed e-independently and shared. *)
let hasnt_tbl : (Intern.id, Guard.t) Hashtbl.t = Hashtbl.create 1024
let first_tbl : Guard.t Intern.Pair_tbl.t = Intern.Pair_tbl.create 4096

let () =
  Intern.register_clearer (fun () ->
      Hashtbl.reset hasnt_tbl;
      Intern.Pair_tbl.reset first_tbl)

let first_of rde rde_id gamma_de =
  let gid = Intern.ids (List.map snd gamma_de) in
  match Intern.Pair_tbl.find_opt first_tbl (rde_id, gid) with
  | Some g -> g
  | None ->
      let hasnt =
        match Hashtbl.find_opt hasnt_tbl gid with
        | Some h -> h
        | None ->
            let h =
              Guard.conj_all (List.map (fun (l, _) -> Guard.hasnt l) gamma_de)
            in
            Hashtbl.add hasnt_tbl gid h;
            h
      in
      let g = Guard.conj (Guard.will_nf_interned rde rde_id) hasnt in
      Intern.Pair_tbl.add first_tbl (rde_id, gid) g;
      g

(* Ids are threaded through the recursion: every normal form is interned
   exactly once — when residuation first produces it — and every probe
   below is an int-pair hash, never a structure walk. *)
let rec guard_shared_ids (d : Nf.t) d_id (e : Literal.t) e_id =
  let key = (d_id, e_id) in
  match Intern.Pair_tbl.find_opt guard_tbl key with
  | Some g -> g
  | None ->
      let gamma_de = gamma_shared d d_id e in
      let rde, rde_id = Residue.nf_interned d d_id e e_id in
      let first = first_of rde rde_id gamma_de in
      let branch (f, f_id) =
        let rdf, rdf_id = Residue.nf_interned d d_id f f_id in
        (f, guard_shared_ids rdf rdf_id e e_id)
      in
      let g = Guard.branch_sum first (List.map branch gamma_de) in
      Intern.Pair_tbl.add guard_tbl key g;
      g

let guard_shared d e = guard_shared_ids d (Intern.nf d) e (Intern.literal e)

let guard_nf d e =
  if Intern.enabled () then guard_shared d e else guard_nf_naive d e

let guard d e = guard_nf (Nf.of_expr d) e

(* --- per-dependency synthesis ---------------------------------------------
   The guards of all a dependency's literals come from one normal form
   and one literal set.  Behind that, one synthesis per shape (see
   {!Shape}): guard synthesis compares symbols only through
   [Symbol.compare], so the guards of a dependency that an
   order-preserving renaming carries onto an earlier one are the
   earlier guards renamed.  [Guard.rename] renames in place; a renaming
   that renormalized could merge products a fresh synthesis keeps. *)

let shapes : (Symbol.t array * Guard.t list) Expr.Tbl.t = Expr.Tbl.create 64
let synthesized = ref 0
let renamed = ref 0

let () =
  Intern.register_clearer (fun () ->
      Expr.Tbl.reset shapes;
      synthesized := 0;
      renamed := 0)

let synthesize d lits =
  let nf_ = Nf.of_expr d in
  if Intern.enabled () then
    let d_id = Intern.nf nf_ in
    List.map (fun l -> guard_shared_ids nf_ d_id l (Intern.literal l)) lits
  else List.map (guard_nf_naive nf_) lits

let guards d =
  let lits = Literal.Set.elements (Expr.literals d) in
  let gs =
    if not (Intern.enabled ()) then synthesize d lits
    else
      let syms = Array.of_list (Symbol.Set.elements (Expr.symbols d)) in
      let key = Expr.rename (Shape.canonical syms) d in
      match Expr.Tbl.find_opt shapes key with
      | Some (from, gs) ->
          incr renamed;
          List.map (Guard.rename (Shape.between from syms)) gs
      | None ->
          let gs = synthesize d lits in
          incr synthesized;
          Expr.Tbl.add shapes key (syms, gs);
          gs
  in
  List.combine lits gs

module For_testing = struct
  let guard_naive d e = guard_nf_naive (Nf.of_expr d) e
  let stats () = [ ("synthesized", !synthesized); ("renamed", !renamed) ]
end
