type fate =
  | Occurred of Literal.polarity * int
  | Promised of Literal.polarity

type t = fate Symbol.Map.t

let empty = Symbol.Map.empty

let occurred (x : Literal.t) ~seqno t =
  let sym = Literal.symbol x in
  (match Symbol.Map.find_opt sym t with
  | Some (Occurred (pol, _)) when pol <> x.pol ->
      Fmt.invalid_arg "Knowledge.occurred: %a contradicts prior occurrence"
        Literal.pp x
  | _ -> ());
  Symbol.Map.add sym (Occurred (x.pol, seqno)) t

let promised (x : Literal.t) t =
  let sym = Literal.symbol x in
  match Symbol.Map.find_opt sym t with
  | Some (Occurred _) -> t
  | _ -> Symbol.Map.add sym (Promised x.pol) t

let fate_of t sym = Symbol.Map.find_opt sym t

let decided t sym =
  match fate_of t sym with Some (Occurred _) -> true | _ -> false

let seqno_of t sym =
  match fate_of t sym with Some (Occurred (_, n)) -> Some n | _ -> None

let symbols t = List.map fst (Symbol.Map.bindings t)
let equal a b = Symbol.Map.equal (fun (x : fate) y -> x = y) a b

type status = True | False | Unknown

let mask_status ~reserved ~never t sym mask =
  let open Symbol_state in
  match Symbol.Map.find_opt sym t with
  | Some (Occurred (pol, _)) ->
      let situation = match pol with Literal.Pos -> A | Literal.Neg -> B in
      if mem situation mask then True else False
  | Some (Promised pol) ->
      if Symbol.Set.mem sym reserved then begin
        (* Promised and reserved: the event will occur but is held
           undecided right now — situation C (resp. D) exactly. *)
        let situation = match pol with Literal.Pos -> C | Literal.Neg -> D in
        if mem situation mask then True else False
      end
      else
        let possible = possible_after_promise pol in
        if subset possible mask then True
        else if is_empty (inter possible mask) then False
        else Unknown
  | None ->
      if is_full mask then True
      else if Symbol.Set.mem sym never then
        (* Universally-quantified fresh instance: the event never
           occurs, so the symbol sits in situation D (Section 5.2). *)
        if mem D mask then True else False
      else if
        Symbol.Set.mem sym reserved
        && subset (union (of_situation C) (of_situation D)) mask
      then True (* reservation holds the symbol undecided *)
      else Unknown

(* Status of an order-sensitive pending term [◇τ] given the seqno-stamped
   occurrence log: dead if some mentioned symbol occurred with the wrong
   polarity, or if the occurred literals do not form a prefix of τ in
   seqno order; satisfied once all occurred in order. *)
let pending_status ?(never = Symbol.Set.empty) t (tau : Term.t) =
  let fate l = Symbol.Map.find_opt (Literal.symbol l) t in
  let occurrence (l : Literal.t) =
    match fate l with
    | Some (Occurred (pol, n)) ->
        if pol = l.Literal.pol then `At n else `Contradicted
    | _ ->
        if Symbol.Set.mem (Literal.symbol l) never && l.pol = Literal.Pos then
          `Contradicted
        else `Not_yet
  in
  let rec walk prev_seqno seen_gap = function
    | [] -> if seen_gap then Unknown else True
    | l :: rest -> (
        match occurrence l with
        | `Contradicted -> False
        | `Not_yet -> walk prev_seqno true rest
        | `At n ->
            if seen_gap then False (* an earlier τ-literal is missing *)
            else if n < prev_seqno then False (* occurred out of τ's order *)
            else walk n seen_gap rest)
  in
  walk min_int false tau

let product_status ?(reserved = Symbol.Set.empty) ?(never = Symbol.Set.empty)
    t (p : Guard.product) =
  let combine a b =
    match (a, b) with
    | False, _ | _, False -> False
    | True, True -> True
    | _ -> Unknown
  in
  let mask_part =
    Symbol.Map.fold
      (fun sym mask acc -> combine acc (mask_status ~reserved ~never t sym mask))
      p.Guard.masks True
  in
  List.fold_left
    (fun acc tau -> combine acc (pending_status ~never t tau))
    mask_part p.Guard.pending

(* Situations the symbol can currently be in, given the knowledge. *)
let possible_situations ~reserved ~never t sym =
  let open Symbol_state in
  match Symbol.Map.find_opt sym t with
  | Some (Occurred (Literal.Pos, _)) -> [ A ]
  | Some (Occurred (Literal.Neg, _)) -> [ B ]
  | Some (Promised Literal.Pos) ->
      if Symbol.Set.mem sym reserved then [ C ] else [ A; C ]
  | Some (Promised Literal.Neg) ->
      if Symbol.Set.mem sym reserved then [ D ] else [ B; D ]
  | None ->
      if Symbol.Set.mem sym never then [ D ]
      else if Symbol.Set.mem sym reserved then [ C; D ]
      else [ A; B; C; D ]

let status ?(reserved = Symbol.Set.empty) ?(never = Symbol.Set.empty) t
    (g : Guard.t) =
  let statuses = List.map (product_status ~reserved ~never t) g in
  if List.exists (( = ) True) statuses then True
  else if List.for_all (( = ) False) statuses then False
  else begin
    (* Exact [True] detection: the guard holds now and forever iff every
       situation vector consistent with the knowledge is covered by the
       union of the products (a single product need not cover them all:
       e.g. [□x + □x̄ + ¬x|¬x̄] is [⊤]).  Products with unresolved
       pending terms cannot cover anything yet. *)
    let live =
      List.filter (fun p -> product_status ~reserved ~never t p <> False) g
    in
    let coverable =
      List.filter
        (fun p ->
          List.for_all
            (fun tau -> pending_status ~never t tau = True)
            p.Guard.pending)
        live
    in
    let symbols =
      List.fold_left
        (fun acc p ->
          Symbol.Map.fold (fun sym _ a -> Symbol.Set.add sym a) p.Guard.masks acc)
        Symbol.Set.empty live
    in
    let syms = Symbol.Set.elements symbols in
    let covers assignment p =
      Symbol.Map.for_all
        (fun sym mask ->
          match List.assoc_opt sym assignment with
          | Some situation -> Symbol_state.mem situation mask
          | None -> true)
        p.Guard.masks
    in
    let rec all_covered assignment = function
      | [] -> List.exists (covers assignment) coverable
      | sym :: rest ->
          List.for_all
            (fun situation -> all_covered ((sym, situation) :: assignment) rest)
            (possible_situations ~reserved ~never t sym)
    in
    if coverable <> [] && all_covered [] syms then True else Unknown
  end

type needs = {
  unresolved : int;
  promises : Literal.t list;
  reserves : Symbol.t list;
}

(* All viable discharge modes of one undecided mask constraint. *)
let mask_options sym mask =
  let open Symbol_state in
  let promises =
    List.filter_map
      (fun pol ->
        if subset (possible_after_promise pol) mask then
          Some { Literal.sym; pol }
        else None)
      [ Literal.Pos; Literal.Neg ]
  in
  let undecided = union (of_situation C) (of_situation D) in
  let reserves =
    if subset undecided mask then [ sym ]
    else if
      (* Combination cases like [¬x|◇x] = {C}: a reservation narrows the
         situations to {C,D}; a subsequent promise pins C (or D). *)
      promises = [] && not (is_empty (inter undecided mask))
    then [ sym ]
    else []
  in
  (promises, reserves)

let needs ?(reserved = Symbol.Set.empty) ?(never = Symbol.Set.empty) t
    (g : Guard.t) =
  List.filter_map
    (fun p ->
      match product_status ~reserved ~never t p with
      | True | False -> None
      | Unknown ->
          let constraints =
            Symbol.Map.fold
              (fun sym mask acc ->
                match mask_status ~reserved ~never t sym mask with
                | True | False -> acc
                | Unknown -> (
                    match Symbol.Map.find_opt sym t with
                    | Some (Promised _) -> ([], []) :: acc
                    | _ -> mask_options sym mask :: acc))
              p.Guard.masks []
          in
          let constraints =
            List.fold_left
              (fun acc tau ->
                match pending_status ~never t tau with
                | True | False -> acc
                | Unknown -> ([], []) :: acc)
              constraints p.Guard.pending
          in
          let unresolved = List.length constraints in
          (* A promise offer is credible only when granting it makes the
             requester fire at once, so request promises only when the
             promise is the last missing piece of the product. *)
          let promises =
            match constraints with [ (ps, _) ] -> ps | _ -> []
          in
          let reserves = List.concat_map snd constraints in
          Some { unresolved; promises; reserves })
    g
