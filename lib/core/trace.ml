type t = Literal.t list

let well_formed u =
  let rec go seen = function
    | [] -> true
    | lit :: rest ->
        let s = Literal.symbol lit in
        (not (Symbol.Set.mem s seen)) && go (Symbol.Set.add s seen) rest
  in
  go Symbol.Set.empty u

let symbols u =
  List.fold_left (fun acc l -> Symbol.Set.add (Literal.symbol l) acc) Symbol.Set.empty u

let maximal alphabet u = well_formed u && Symbol.Set.subset alphabet (symbols u)
let mem lit u = List.exists (Literal.equal lit) u

let length = List.length

let prefix i u = List.filteri (fun k _ -> k < i) u
let suffix j u =
  let rec drop n = function
    | rest when n <= 0 -> rest
    | [] -> []
    | _ :: rest -> drop (n - 1) rest
  in
  drop j u

let append u v =
  let w = u @ v in
  if well_formed w then Some w else None

let compare = List.compare Literal.compare
let equal a b = compare a b = 0

let pp ppf u =
  Format.fprintf ppf "⟨%a⟩"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Literal.pp)
    u

let to_string u = Format.asprintf "%a" pp u

let of_events names =
  let lit name =
    if String.length name > 0 && name.[0] = '~' then
      Literal.complement_of (String.sub name 1 (String.length name - 1))
    else Literal.event name
  in
  List.map lit names

module For_testing = struct
  let index_of lit u =
    let rec go i = function
      | [] -> None
      | l :: rest -> if Literal.equal lit l then Some i else go (i + 1) rest
    in
    go 1 u
end
