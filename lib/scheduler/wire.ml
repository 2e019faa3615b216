(* Binary codecs for the core types that appear in scheduler journals.

   Every decoder rebuilds values through the public constructors —
   [Symbol.make]/[Symbol.parametrized], [Term.make], [Knowledge.occurred]
   — so hash-consing and invariants are re-established on the way in;
   nothing is deserialized structurally past what the interfaces expose.
   An invariant violation (a repeated symbol in a term, say) fails the
   decode, which [Wf_store.Binio.decode] turns into [None] for the
   log's typed salvage path. *)

open Wf_core
module B = Wf_store.Binio

(* --- symbols and literals ------------------------------------------------- *)

let symbol =
  B.map
    (fun (base, args) ->
      match args with
      | [] -> Symbol.make base
      | args -> Symbol.parametrized base args)
    (fun s -> (Symbol.base s, Symbol.args s))
    B.(pair string (list string))

let polarity =
  B.map
    (fun pos -> if pos then Literal.Pos else Literal.Neg)
    (fun p -> p = Literal.Pos)
    B.bool

let literal =
  B.map
    (fun (sym, pol) -> ({ sym; pol } : Literal.t))
    (fun (l : Literal.t) -> (l.sym, l.pol))
    (B.pair symbol polarity)

let symbol_set = B.map Symbol.Set.of_list Symbol.Set.elements (B.list symbol)
let literal_set = B.map Literal.Set.of_list Literal.Set.elements (B.list literal)

(* --- terms and guards ----------------------------------------------------- *)

let term =
  B.map
    (fun lits ->
      match Term.make lits with
      | Some t -> t
      | None -> B.fail "term repeats a symbol")
    Fun.id (B.list literal)

let mask =
  let check m =
    if Symbol_state.subset m Symbol_state.full then m
    else B.fail "mask out of range"
  in
  B.map check check B.uint

let product =
  B.map
    (fun (bindings, pending) ->
      let masks =
        List.fold_left
          (fun acc (s, m) -> Symbol.Map.add s m acc)
          Symbol.Map.empty bindings
      in
      ({ masks; pending } : Guard.product))
    (fun (p : Guard.product) -> (Symbol.Map.bindings p.masks, p.pending))
    B.(pair (list (pair symbol mask)) (list term))

let guard = B.map (fun ps : Guard.t -> ps) Guard.products (B.list product)

(* --- knowledge ------------------------------------------------------------ *)

(* The discriminant is a bool byte: true for an occurrence. *)
let fate =
  B.union (B.map Bool.to_int (fun tag -> tag = 1) B.bool)
    [
      B.case 1 (B.pair polarity B.int)
        (fun (p, seqno) -> Knowledge.Occurred (p, seqno))
        (function Knowledge.Occurred (p, seqno) -> Some (p, seqno) | _ -> None);
      B.case 0 polarity
        (fun p -> Knowledge.Promised p)
        (function Knowledge.Promised p -> Some p | _ -> None);
    ]

let knowledge =
  B.map
    (List.fold_left
       (fun k (sym, fate) ->
         match (fate, Knowledge.fate_of k sym) with
         | Knowledge.Occurred (pol, _), Some (Knowledge.Occurred (pol', _))
           when pol <> pol' ->
             B.fail "knowledge contradicts an occurrence"
         | Knowledge.Occurred (pol, seqno), _ ->
             Knowledge.occurred { Literal.sym; pol } ~seqno k
         | Knowledge.Promised pol, _ ->
             Knowledge.promised { Literal.sym; pol } k)
       Knowledge.empty)
    (fun k ->
      List.map
        (fun s ->
          match Knowledge.fate_of k s with
          | Some f -> (s, f)
          | None -> B.fail "knowledge symbol without fate")
        (Knowledge.symbols k))
    B.(list (pair symbol fate))

(* --- messages ------------------------------------------------------------- *)

let message : Messages.t B.t =
  let open Messages in
  B.union B.uint
    [
      B.case 0 (B.pair literal B.int)
        (fun (lit, seqno) -> Announce { lit; seqno })
        (function Announce { lit; seqno } -> Some (lit, seqno) | _ -> None);
      B.case 1
        (B.triple literal literal (B.list literal))
        (fun (target, requester, offers) ->
          Promise_request { target; requester; offers })
        (function
          | Promise_request { target; requester; offers } ->
              Some (target, requester, offers)
          | _ -> None);
      B.case 2 (B.pair literal literal)
        (fun (lit, to_) -> Promise { lit; to_ })
        (function Promise { lit; to_ } -> Some (lit, to_) | _ -> None);
      B.case 3 (B.pair symbol literal)
        (fun (sym, requester) -> Reserve { sym; requester })
        (function
          | Reserve { sym; requester } -> Some (sym, requester) | _ -> None);
      B.case 4 (B.pair symbol literal)
        (fun (sym, to_) -> Reserve_granted { sym; to_ })
        (function Reserve_granted { sym; to_ } -> Some (sym, to_) | _ -> None);
      B.case 5 (B.pair symbol literal)
        (fun (sym, to_) -> Reserve_denied { sym; to_ })
        (function Reserve_denied { sym; to_ } -> Some (sym, to_) | _ -> None);
      B.case 6 (B.pair symbol literal)
        (fun (sym, holder) -> Release { sym; holder })
        (function Release { sym; holder } -> Some (sym, holder) | _ -> None);
      B.case 7 (B.pair symbol B.int)
        (fun (sym, epoch) -> Recovered { sym; epoch })
        (function Recovered { sym; epoch } -> Some (sym, epoch) | _ -> None);
    ]
